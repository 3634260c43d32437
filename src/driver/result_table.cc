#include "driver/result_table.hh"

#include <charconv>
#include <cstring>

#include "common/json.hh"
#include "driver/experiment_engine.hh"

namespace vgiw
{

namespace
{

/** Arena chunk size; fields longer than this get a dedicated chunk. */
constexpr size_t kChunkBytes = size_t{1} << 16;

void
appendU64(std::string &out, uint64_t v)
{
    char buf[20];
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;  // 20 digits always fit a uint64
    out.append(buf, size_t(p - buf));
}

/** `,"name":"escaped"` — the quoted-string field idiom. */
void
appendStrField(std::string &out, const char *name, std::string_view v)
{
    out += ",\"";
    out += name;
    out += "\":\"";
    out += jsonEscape(std::string(v));
    out += '"';
}

void
appendU64Field(std::string &out, const char *name, uint64_t v)
{
    out += ",\"";
    out += name;
    out += "\":";
    appendU64(out, v);
}

void
appendNumField(std::string &out, const char *name, double v)
{
    out += ",\"";
    out += name;
    out += "\":";
    out += jsonNumber(v);
}

} // namespace

void
ResultTable::reset(size_t rows)
{
    std::lock_guard<std::mutex> lock(mu_);
    chunks_.clear();
    chunkUsed_ = 0;
    arenaBytes_.store(0, std::memory_order_relaxed);

    flags_.assign(rows, 0);
    errorKind_.assign(rows, uint8_t(SimErrorKind::None));
    attempts_.assign(rows, 1);
    workload_.assign(rows, Ref{});
    arch_.assign(rows, Ref{});
    config_.assign(rows, Ref{});
    error_.assign(rows, Ref{});
    verbatimJson_.assign(rows, Ref{});
    metricsJson_.assign(rows, Ref{});
    partialCycles_.assign(rows, 0);
    partialBlockExecs_.assign(rows, 0);
    partialThreadOps_.assign(rows, 0);
    stats_.assign(rows, StatRow{});
    extras_.assign(rows, {});
    rendered_.assign(rows, std::string());
    renderValid_.assign(rows, 0);
}

ResultTable::Ref
ResultTable::intern(std::string_view s)
{
    if (s.empty())
        return Ref{};
    arenaBytes_.fetch_add(s.size(), std::memory_order_relaxed);
    if (s.size() > kChunkBytes) {
        // Oversized field (a long restored line, a big metrics blob):
        // give it a dedicated chunk and retire it immediately so the
        // next small intern opens a fresh standard chunk.
        auto chunk = std::make_unique<char[]>(s.size());
        std::memcpy(chunk.get(), s.data(), s.size());
        const char *p = chunk.get();
        chunks_.push_back(std::move(chunk));
        chunkUsed_ = kChunkBytes;
        return Ref{p, uint32_t(s.size())};
    }
    if (chunks_.empty() || chunkUsed_ + s.size() > kChunkBytes) {
        chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
        chunkUsed_ = 0;
    }
    char *p = chunks_.back().get() + chunkUsed_;
    std::memcpy(p, s.data(), s.size());
    chunkUsed_ += s.size();
    return Ref{p, uint32_t(s.size())};
}

void
ResultTable::fill(size_t index, const JobResult &r)
{
    uint8_t flags = kFilled;
    if (r.goldenPassed)
        flags |= kGolden;
    if (r.ran)
        flags |= kRan;
    if (r.stats.supported)
        flags |= kSupported;
    if (r.quarantined)
        flags |= kQuarantined;
    if (!r.verbatimJson.empty())
        flags |= kVerbatim;
    if (r.partial.valid)
        flags |= kPartialValid;
    if (r.drained)
        flags |= kDrained;

    {
        std::lock_guard<std::mutex> lock(mu_);
        workload_[index] = intern(r.workload);
        arch_[index] = intern(r.arch);
        config_[index] = intern(r.configLabel);
        error_[index] = intern(r.error);
        verbatimJson_[index] = intern(r.verbatimJson);
        metricsJson_[index] = intern(r.metricsJson);
        // Row-owned extras (not a shared pool): renderRow() on another
        // row must stay safe while this fill() is appending.
        const auto &entries = r.stats.extra.entries();
        auto &extras = extras_[index];
        extras.clear();
        extras.reserve(entries.size());
        for (const auto &[name, value] : entries)
            extras.emplace_back(intern(name), value);
    }

    errorKind_[index] = uint8_t(r.errorKind);
    attempts_[index] = r.attempts;
    partialCycles_[index] = r.partial.cycles;
    partialBlockExecs_[index] = r.partial.dynBlockExecs;
    partialThreadOps_[index] = r.partial.dynThreadOps;

    const RunStats &s = r.stats;
    StatRow &row = stats_[index];
    row.cycles = s.cycles;
    row.configCycles = s.configCycles;
    row.reconfigs = s.reconfigs;
    row.dynBlockExecs = s.dynBlockExecs;
    row.dynThreadOps = s.dynThreadOps;
    row.dynWarpInstrs = s.dynWarpInstrs;
    row.rfAccesses = s.rfAccesses;
    row.lvcAccesses = s.lvcAccesses;
    row.l1Accesses = s.l1Stats.accesses();
    row.l1Misses = s.l1Stats.misses();
    row.l2Accesses = s.l2Stats.accesses();
    row.l2Misses = s.l2Stats.misses();
    row.lvcMisses = s.lvcStats.misses();
    row.dramAccesses = s.dramStats.accesses;
    row.dramRowHits = s.dramStats.rowHits;
    row.corePj = s.energy.corePj();
    row.diePj = s.energy.diePj();
    row.systemPj = s.energy.systemPj();

    renderValid_[index] = 0;
    flags_[index] = flags;  // last: publishes the row as filled
}

bool
ResultTable::filled(size_t index) const
{
    return (flags_[index] & kFilled) != 0;
}

std::string_view
ResultTable::renderRow(size_t index)
{
    if (renderValid_[index])
        return rendered_[index];

    const uint8_t flags = flags_[index];
    std::string &out = rendered_[index];
    out.clear();

    if (!(flags & kFilled)) {
        out = "{}";
        renderValid_[index] = 1;
        return out;
    }

    // A verbatim row (restored, or rendered by a shard worker)
    // re-emits its bytes untouched: for a restored row this is
    // what makes kill + resume bit-identical to an uninterrupted run
    // even if the serialisation format evolves between releases.
    if (flags & kVerbatim) {
        out.assign(verbatimJson_[index].view());
        renderValid_[index] = 1;
        return out;
    }

    const bool ran = (flags & kRan) != 0;
    const bool ok = ran && error_[index].empty();

    out.reserve(ran ? 640 : 192);
    out += "{\"workload\":\"";
    out += jsonEscape(std::string(workload_[index].view()));
    out += '"';
    appendStrField(out, "arch", arch_[index].view());
    appendStrField(out, "config", config_[index].view());
    out += ",\"golden\":";
    out += (flags & kGolden) ? "true" : "false";
    out += ",\"ok\":";
    out += ok ? "true" : "false";
    if (!error_[index].empty())
        appendStrField(out, "error", error_[index].view());
    // Failure-only fields: healthy lines stay byte-identical to what
    // the engine emitted before the taxonomy existed.
    if (SimErrorKind(errorKind_[index]) != SimErrorKind::None) {
        out += ",\"error_kind\":\"";
        out += simErrorKindName(SimErrorKind(errorKind_[index]));
        out += '"';
    }
    if (flags & kPartialValid) {
        appendU64Field(out, "partial_cycles", partialCycles_[index]);
        appendU64Field(out, "partial_block_execs",
                       partialBlockExecs_[index]);
        appendU64Field(out, "partial_thread_ops",
                       partialThreadOps_[index]);
    }
    // Retry bookkeeping, failures only: a healthy suite's lines stay
    // byte-identical to the retry-free engine's output.
    if (!ok) {
        if (attempts_[index] > 1)
            appendU64Field(out, "attempts", attempts_[index]);
        if (flags & kQuarantined)
            out += ",\"quarantined\":true";
    }
    if (ran) {
        const StatRow &s = stats_[index];
        out += ",\"supported\":";
        out += (flags & kSupported) ? "true" : "false";
        appendU64Field(out, "cycles", s.cycles);
        appendU64Field(out, "config_cycles", s.configCycles);
        appendU64Field(out, "reconfigs", s.reconfigs);
        appendU64Field(out, "dyn_block_execs", s.dynBlockExecs);
        appendU64Field(out, "dyn_thread_ops", s.dynThreadOps);
        appendU64Field(out, "dyn_warp_instrs", s.dynWarpInstrs);
        appendU64Field(out, "rf_accesses", s.rfAccesses);
        appendU64Field(out, "lvc_accesses", s.lvcAccesses);
        appendNumField(out, "energy_core_pj", s.corePj);
        appendNumField(out, "energy_die_pj", s.diePj);
        appendNumField(out, "energy_system_pj", s.systemPj);
        appendU64Field(out, "l1_accesses", s.l1Accesses);
        appendU64Field(out, "l1_misses", s.l1Misses);
        appendU64Field(out, "l2_accesses", s.l2Accesses);
        appendU64Field(out, "l2_misses", s.l2Misses);
        appendU64Field(out, "lvc_misses", s.lvcMisses);
        appendU64Field(out, "dram_accesses", s.dramAccesses);
        appendU64Field(out, "dram_row_hits", s.dramRowHits);
        out += ",\"extra\":{";
        const auto &extras = extras_[index];
        for (size_t e = 0; e < extras.size(); ++e) {
            const auto &[name, value] = extras[e];
            if (e)
                out += ',';
            out += '"';
            out += jsonEscape(std::string(name.view()));
            out += "\":";
            out += jsonNumber(value);
        }
        out += '}';
    }
    // Opt-in field: present only when a MetricsCollector ran the job,
    // so default suite JSON stays bit-identical to the metrics-free
    // engine (successes and failures both carry it when enabled).
    if (!metricsJson_[index].empty()) {
        out += ",\"metrics\":";
        out.append(metricsJson_[index].view());
    }
    out += '}';
    renderValid_[index] = 1;
    return out;
}

void
ResultTable::renderInto(ResultSink &sink)
{
    for (size_t i = 0; i < numRows(); ++i) {
        const uint8_t flags = flags_[i];
        if (!(flags & kFilled) || (flags & kDrained))
            continue;
        sink.row(i, renderRow(i));
    }
}

size_t
ResultTable::arenaBytes() const
{
    return arenaBytes_.load(std::memory_order_relaxed);
}

} // namespace vgiw
