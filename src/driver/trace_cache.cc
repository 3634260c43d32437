#include "driver/trace_cache.hh"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "driver/artifact_store.hh"
#include "interp/interpreter.hh"
#include "ir/printer.hh"

namespace vgiw
{

namespace
{

/** Launch geometry + parameter bits, the name-free half of keyFor(). */
std::string
launchFingerprint(const LaunchParams &launch)
{
    std::ostringstream os;
    os << launch.numCtas << 'x' << launch.ctaSize;
    for (const Scalar &p : launch.params)
        os << ',' << p.bits;
    return os.str();
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * Trace blob payload: a u64 flag word (bit 0 = golden check passed;
 * other bits reserved, rejected on load) followed by the TraceSet wire
 * form — which stays 8-aligned because the prologue is 8 bytes.
 */
constexpr uint64_t kGoldenPassedFlag = 1;

} // namespace

TraceResult
traceWorkload(const WorkloadInstance &w)
{
    MemoryImage mem = w.memory;  // keep the instance reusable
    TraceResult out;
    out.traces = std::make_shared<const TraceSet>(
        Interpreter{}.run(w.kernel, w.launch, mem));

    if (w.check) {
        out.goldenPassed = w.check(mem, out.error);
        if (!out.goldenPassed)
            out.errorKind = SimErrorKind::Golden;
    } else {
        out.goldenPassed = true;
    }
    return out;
}

std::string
TraceCache::keyFor(const std::string &name, const LaunchParams &launch)
{
    return name + '|' + launchFingerprint(launch);
}

TraceResult
TraceCache::get(const std::string &name,
                const std::function<WorkloadInstance()> &make,
                bool nameIsUnique)
{
    // When the caller promises that the name fully determines the
    // instance, repeat gets skip make() entirely: no kernel build, no
    // input generation, no memory image.
    if (nameIsUnique) {
        std::shared_future<std::shared_ptr<const Entry>> memoised;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto known = nameToKey_.find(name);
            if (known != nameToKey_.end()) {
                auto it = entries_.find(known->second);
                if (it != entries_.end())
                    memoised = it->second;
            }
        }
        if (memoised.valid()) {
            // Waits outside the lock if the first requester's
            // functional execution is still in flight.
            return resultFor(memoised.get());
        }
    }

    auto entry = std::make_shared<Entry>();
    entry->workload = make();
    const std::string key = keyFor(name, entry->workload.launch);

    std::promise<std::shared_ptr<const Entry>> promise;
    std::shared_future<std::shared_ptr<const Entry>> future;
    bool miss = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (nameIsUnique)
            nameToKey_.insert_or_assign(name, key);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            miss = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        } else {
            future = it->second;
        }
    }

    if (miss) {
        // Content-addressed warm path: with a store attached, hash the
        // kernel IR and try to mmap previously published traces before
        // paying for a functional execution.
        uint64_t content_hash = 0;
        std::string store_key;
        if (store_) {
            content_hash = fnv1a(kernelToString(entry->workload.kernel));
            store_key = "trace|" + hex64(content_hash) + "|" +
                        launchFingerprint(entry->workload.launch);
            if (tryLoadFromStore(*entry, content_hash, store_key)) {
                promise.set_value(entry);
                return resultFor(entry);
            }
        }

        // Functional execution outside the lock: other keys (and other
        // requesters of this key, via the future) are not serialised
        // behind it.
        execs_.fetch_add(1);
        try {
            entry->result = traceWorkload(entry->workload);
        } catch (const SimError &e) {
            entry->result = TraceResult{};
            entry->result.error = e.what();
            entry->result.errorKind = e.kind();
        } catch (const std::exception &e) {
            entry->result = TraceResult{};
            entry->result.error = e.what();
            entry->result.errorKind = SimErrorKind::Functional;
        }
        if (entry->result.traces) {
            // Sole owner at this point (the entry has not been shared
            // through the promise yet), so the const_cast is benign:
            // stamp the content hash before any replay can read it.
            auto *ts = const_cast<TraceSet *>(entry->result.traces.get());
            ts->contentHash = content_hash;
        }
        if (store_ && entry->result.ok()) {
            std::string payload;
            const uint64_t flags = kGoldenPassedFlag;
            payload.append(reinterpret_cast<const char *>(&flags),
                           sizeof flags);
            entry->result.traces->serializeInto(payload);
            // Publish failures are non-fatal: the store is a cache and
            // this run already holds the traces.
            store_->publish("trace", store_key, payload);
        }
        promise.set_value(entry);
        return resultFor(entry);
    }
    return resultFor(future.get());
}

TraceResult
TraceCache::get(const WorkloadEntry &entry)
{
    // Registry entries have one fixed make per name.
    return get(entry.name, entry.make, /*nameIsUnique=*/true);
}

bool
TraceCache::tryLoadFromStore(Entry &entry, uint64_t contentHash,
                             const std::string &storeKey) const
{
    ArtifactStore::Blob blob;
    if (!store_->load("trace", storeKey, &blob))
        return false;
    if (blob.size < sizeof(uint64_t))
        return false;
    uint64_t flags = 0;
    std::memcpy(&flags, blob.payload, sizeof flags);
    if (flags != kGoldenPassedFlag)  // reserved bits ⇒ future format
        return false;

    auto ts = std::make_shared<TraceSet>();
    if (!TraceSet::deserialize(blob.payload + sizeof flags,
                               blob.size - sizeof flags, blob.backing,
                               &entry.workload.kernel,
                               entry.workload.launch, *ts))
        return false;
    ts->contentHash = contentHash;

    entry.result.traces = std::move(ts);
    entry.result.goldenPassed = true;
    entry.result.error.clear();
    entry.result.errorKind = SimErrorKind::None;
    return true;
}

TraceResult
TraceCache::resultFor(const std::shared_ptr<const Entry> &entry) const
{
    TraceResult out;
    out.goldenPassed = entry->result.goldenPassed;
    out.error = entry->result.error;
    out.errorKind = entry->result.errorKind;
    if (entry->result.traces) {
        // Aliasing constructor: the handed-out pointer keeps the whole
        // entry (traces *and* the kernel they borrow) alive.
        out.traces = std::shared_ptr<const TraceSet>(
            entry, entry->result.traces.get());
    }
    return out;
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    nameToKey_.clear();
}

void
TraceCache::resetNameMemo()
{
    std::lock_guard<std::mutex> lock(mu_);
    nameToKey_.clear();
}

} // namespace vgiw
