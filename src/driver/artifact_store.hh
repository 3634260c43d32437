/**
 * @file
 * Persistent content-addressed artifact store.
 *
 * A sweep's two expensive, perfectly-deterministic phases — functional
 * execution (traces) and kernel compilation (per-arch CompiledKernel
 * artifacts) — are pure functions of content the driver already
 * fingerprints: the kernel IR plus the launch geometry for traces, the
 * kernel IR plus CoreModel::compileKey() for compile artifacts. The
 * store persists both across processes so a warm sweep replays a whole
 * suite with zero functional executions and zero compilations; it is
 * also the mmap-shared substrate a future coordinator/worker sweep
 * service mounts so a fleet compiles each kernel exactly once.
 *
 * Addressing: a blob's logical key is a readable pipe-delimited string
 * (e.g. "trace|<irhash>|<launch>"); its on-disk address is the 64-bit
 * FNV-1a of that string, rendered as hex under <dir>/objects/. The full
 * key is embedded in the blob header and verified on load, so a hash
 * collision demotes to a miss instead of serving the wrong artifact.
 *
 * Durability and integrity: publication is write-temp / fsync / rename
 * (writeFileAtomic), so concurrent publishers of one key — two worker
 * processes compiling the same kernel — both succeed and readers never
 * observe a torn blob. Loads mmap the file read-only (zero-copy: a
 * warm trace's compressed streams are decoded straight out of the
 * mapping, never rematerialised) and validate magic, format version,
 * key and an FNV-1a payload checksum; any mismatch — truncation, a
 * flipped byte, a stale format — is a miss, never an error. The store
 * is strictly a cache: every failure path falls back to recomputing.
 */

#ifndef VGIW_DRIVER_ARTIFACT_STORE_HH
#define VGIW_DRIVER_ARTIFACT_STORE_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace vgiw
{

/** 64-bit FNV-1a — the store's address and checksum hash. */
inline uint64_t
fnv1a(std::string_view bytes, uint64_t h = 14695981039346656037ull)
{
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** fnv1a over raw bytes (payload checksums). */
inline uint64_t
fnv1aBytes(const void *data, size_t len,
           uint64_t h = 14695981039346656037ull)
{
    return fnv1a(
        std::string_view(static_cast<const char *>(data), len), h);
}

/**
 * Little-endian bounds-checked byte codec for artifact payloads. The
 * writer appends into a std::string (what publish() takes); the reader
 * never reads past the blob and reports truncation through ok() so a
 * malformed artifact deserialises to "miss", not to a crash.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out) : out_(out) {}

    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }
    void
    u64(uint64_t v)
    {
        raw(&v, sizeof v);
    }
    void
    i32(int32_t v)
    {
        raw(&v, sizeof v);
    }
    void
    f64(double v)
    {
        raw(&v, sizeof v);
    }
    void
    u8(uint8_t v)
    {
        out_.push_back(char(v));
    }
    void
    raw(const void *p, size_t n)
    {
        out_.append(static_cast<const char *>(p), n);
    }

  private:
    std::string &out_;
};

class ByteReader
{
  public:
    ByteReader(const void *data, size_t len)
        : p_(static_cast<const uint8_t *>(data)), end_(p_ + len)
    {
    }

    /** No read so far ran off the end. */
    bool ok() const { return ok_; }
    /** Every byte was consumed (trailing garbage is also corruption). */
    bool done() const { return ok_ && p_ == end_; }
    size_t remaining() const { return size_t(end_ - p_); }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }
    uint64_t
    u64()
    {
        uint64_t v = 0;
        raw(&v, sizeof v);
        return v;
    }
    int32_t
    i32()
    {
        int32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }
    double
    f64()
    {
        double v = 0;
        raw(&v, sizeof v);
        return v;
    }
    uint8_t
    u8()
    {
        uint8_t v = 0;
        raw(&v, sizeof v);
        return v;
    }
    void
    raw(void *out, size_t n)
    {
        if (!ok_ || remaining() < n) {
            ok_ = false;
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, p_, n);
        p_ += n;
    }
    /** Borrow @p n bytes in place (no copy); nullptr on truncation. */
    const uint8_t *
    bytes(size_t n)
    {
        if (!ok_ || remaining() < n) {
            ok_ = false;
            return nullptr;
        }
        const uint8_t *p = p_;
        p_ += n;
        return p;
    }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
    bool ok_ = true;
};

/**
 * Content-addressed, crash-safe, mmap-loaded blob store rooted at a
 * directory (the --artifact-dir). Thread-safe: loads and publishes of
 * distinct keys proceed concurrently; same-key races are resolved by
 * atomic rename (last writer wins with byte-identical content, since
 * blobs are deterministic functions of their key).
 */
class ArtifactStore
{
  public:
    /** Bumped whenever the blob header or any payload layout changes;
     * blobs from other versions demote to misses. 2: traces store
     * branch outcomes instead of (block, successor, access count). */
    static constexpr uint32_t kFormatVersion = 2;

    ArtifactStore() = default;

    /**
     * Open (creating directories as needed) the store rooted at @p dir.
     * Returns false and fills @p error when the directory cannot be
     * created or written; a failed open leaves the store disabled
     * (every load a miss, every publish a no-op).
     */
    bool open(const std::string &dir, std::string *error = nullptr);

    bool isOpen() const { return !objectsDir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * A validated, mapped blob. @p payload points into the mapping
     * (zero-copy) and stays valid for the lifetime of @p backing —
     * callers that keep decoded views into the payload (the trace
     * cache) must keep @p backing alive alongside them.
     */
    struct Blob
    {
        std::shared_ptr<const void> backing;
        const uint8_t *payload = nullptr;
        size_t size = 0;
    };

    /**
     * Look up @p key (of kind @p kind, which names the file suffix —
     * "trace", "vgiw.ck", ...). True and a validated Blob on a hit;
     * false on a miss. Corrupt, truncated, stale-version and
     * wrong-key blobs are misses.
     */
    bool load(const std::string &kind, const std::string &key, Blob *out);

    /**
     * Durably publish @p payload under @p key. Failures (disk full,
     * permissions) are reported but non-fatal by design: the caller
     * already holds the computed artifact and the store is a cache.
     */
    bool publish(const std::string &kind, const std::string &key,
                 std::string_view payload, std::string *error = nullptr);

    /** The object path a (kind, key) pair maps to (tests, tools). */
    std::string objectPath(const std::string &kind,
                           const std::string &key) const;

    /** Mapped-blob hits served since open(). */
    uint64_t hits() const { return hits_.load(); }
    /** Lookups that found no valid blob (absent or corrupt). */
    uint64_t misses() const { return misses_.load(); }
    /** Total payload bytes served from mappings. */
    uint64_t bytesMapped() const { return bytesMapped_.load(); }
    /** Misses caused by a present-but-invalid blob (diagnostics). */
    uint64_t rejected() const { return rejected_.load(); }

  private:
    std::string dir_;
    std::string objectsDir_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> bytesMapped_{0};
    std::atomic<uint64_t> rejected_{0};
};

} // namespace vgiw

#endif // VGIW_DRIVER_ARTIFACT_STORE_HH
