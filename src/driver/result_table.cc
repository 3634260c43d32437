#include "driver/result_table.hh"

#include <charconv>

#include "common/json.hh"
#include "driver/experiment_engine.hh"

namespace vgiw
{

namespace
{

/** `,"name":"escaped"` — the quoted-string field idiom. */
void
appendStrField(std::string &out, const char *name, const std::string &v)
{
    out += ",\"";
    out += name;
    out += "\":\"";
    out += jsonEscape(v);
    out += '"';
}

void
appendU64Field(std::string &out, const char *name, uint64_t v)
{
    out += ",\"";
    out += name;
    out += "\":";
    char buf[20];
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;  // 20 digits always fit a uint64
    out.append(buf, size_t(p - buf));
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

std::string
renderJobLine(const JobResult &r)
{
    // Re-emitting a restored row's bytes untouched is what makes
    // kill + resume bit-identical to an uninterrupted run even if the
    // serialisation format evolves between releases.
    if (!r.verbatimJson.empty())
        return r.verbatimJson;

    const bool ok = r.ok();
    std::string out;
    out.reserve(r.ran ? 640 : 192);
    out += "{\"workload\":\"";
    out += jsonEscape(r.workload);
    out += '"';
    appendStrField(out, "arch", r.arch);
    appendStrField(out, "config", r.configLabel);
    out += ",\"golden\":";
    out += r.goldenPassed ? "true" : "false";
    out += ",\"ok\":";
    out += ok ? "true" : "false";
    if (!r.error.empty())
        appendStrField(out, "error", r.error);
    // Failure-only fields: healthy lines stay byte-identical to what
    // the engine emitted before the taxonomy existed.
    if (r.errorKind != SimErrorKind::None) {
        out += ",\"error_kind\":\"";
        out += simErrorKindName(r.errorKind);
        out += '"';
    }
    if (r.partial.valid) {
        appendU64Field(out, "partial_cycles", r.partial.cycles);
        appendU64Field(out, "partial_block_execs", r.partial.dynBlockExecs);
        appendU64Field(out, "partial_thread_ops", r.partial.dynThreadOps);
    }
    // Shard crash bookkeeping, failures only: a healthy suite's lines
    // carry neither field.
    if (!ok) {
        if (r.attempts > 1)
            appendU64Field(out, "attempts", r.attempts);
        if (r.quarantined)
            out += ",\"quarantined\":true";
    }
    if (r.ran) {
        const RunStats &s = r.stats;
        out += ",\"supported\":";
        out += s.supported ? "true" : "false";
        appendU64Field(out, "cycles", s.cycles);
        appendU64Field(out, "config_cycles", s.configCycles);
        appendU64Field(out, "reconfigs", s.reconfigs);
        appendU64Field(out, "dyn_block_execs", s.dynBlockExecs);
        appendU64Field(out, "dyn_thread_ops", s.dynThreadOps);
        appendU64Field(out, "dyn_warp_instrs", s.dynWarpInstrs);
        appendU64Field(out, "rf_accesses", s.rfAccesses);
        appendU64Field(out, "lvc_accesses", s.lvcAccesses);
        appendNumField(out, "energy_core_pj", s.energy.corePj());
        appendNumField(out, "energy_die_pj", s.energy.diePj());
        appendNumField(out, "energy_system_pj", s.energy.systemPj());
        appendU64Field(out, "l1_accesses", s.l1Stats.accesses());
        appendU64Field(out, "l1_misses", s.l1Stats.misses());
        appendU64Field(out, "l2_accesses", s.l2Stats.accesses());
        appendU64Field(out, "l2_misses", s.l2Stats.misses());
        appendU64Field(out, "lvc_misses", s.lvcStats.misses());
        appendU64Field(out, "dram_accesses", s.dramStats.accesses);
        appendU64Field(out, "dram_row_hits", s.dramStats.rowHits);
        out += ",\"extra\":{";
        bool first = true;
        for (const auto &[name, value] : s.extra.entries()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(name);
            out += "\":";
            out += jsonNumber(value);
        }
        out += '}';
    }
    // Opt-in field: present only when a MetricsCollector ran the job,
    // so default suite JSON stays bit-identical to the metrics-free
    // engine (successes and failures both carry it when enabled).
    if (!r.metricsJson.empty()) {
        out += ",\"metrics\":";
        out += r.metricsJson;
    }
    out += '}';
    return out;
}

void
ResultTable::reset(size_t rows)
{
    lines_.assign(rows, std::string());
    state_.assign(rows, 0);
}

void
ResultTable::fill(size_t index, const JobResult &r)
{
    lines_[index] = renderJobLine(r);
    state_[index] = kFilled | (r.drained ? kDrained : 0);
}

bool
ResultTable::filled(size_t index) const
{
    return (state_[index] & kFilled) != 0;
}

std::string_view
ResultTable::renderRow(size_t index) const
{
    if (!filled(index))
        return "{}";
    return lines_[index];
}

void
ResultTable::renderInto(ResultSink &sink) const
{
    for (size_t i = 0; i < numRows(); ++i) {
        if (filled(i) && !(state_[i] & kDrained))
            sink.row(i, lines_[i]);
    }
}

} // namespace vgiw
