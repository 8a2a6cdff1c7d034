/**
 * @file
 * Sharded memoization cache fronting `Simulator::run`.
 *
 * Perf-model two-phase pretraining and the figure benches evaluate
 * thousands of candidates drawn from a *discrete* search space, and the
 * same candidate architectures recur — across paired evaluation sets,
 * across a converging RL policy's samples, and across benches sharing a
 * baseline. HW-NAS-Bench-style cost lookup is the standard way to
 * amortize those repeats: SimCache maps a canonical key — the candidate's
 * decision encoding plus a fingerprint of the chip and pass configuration
 * — to the result's scalar summary: every SimResult field except the
 * per-op timings (`perOp` is dropped on the way in, so every result that
 * comes out of the cache has an empty `perOp`). No cached caller reads
 * per-op timings; callers that need them run `Simulator::run` directly.
 *
 * Concurrency: the table is sharded by key hash with one mutex per
 * shard (mutex striping), so concurrent evaluators from h2o::exec rarely
 * contend. Each shard keeps an LRU list bounded at capacity/shards;
 * eviction is O(1). getOrCompute() runs the miss computation OUTSIDE the
 * shard lock: two threads may race to simulate the same key (both
 * compute, last insert wins) — acceptable because Simulator::run is pure.
 *
 * The cold path parallelizes: getOrComputeBatch() dedupes the batch's
 * missing keys (each distinct key is computed exactly once) and can fan
 * the miss chunks out over an h2o::exec::ThreadPool. Every cache
 * mutation stays on the calling thread in ascending batch position —
 * workers only run the pure miss computation — so hit counting, LRU
 * refresh order and eviction order are bit-identical at any pool size.
 *
 * Hit/miss/eviction counters are atomics, exported through
 * `search/telemetry` (writeSimCacheStatsCsv) for the benches. Entries
 * additionally carry a global recency tick so save() can serialize the
 * cache in global least-recently-used-first order: a load() into any
 * capacity/shard geometry replays accesses oldest-first and therefore
 * evicts oldest-first when the stream exceeds the target's capacity.
 */

#ifndef H2O_SIM_SIM_CACHE_H
#define H2O_SIM_SIM_CACHE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <istream>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "sim/simulator.h"

namespace h2o::sim {

/**
 * Canonical identity of one simulation request: the candidate's decision
 * encoding (plus any caller tags, e.g. exec mode) and a fingerprint of
 * everything else that determines the result (chip, pass config).
 * Equality is exact — the hash only picks the stripe/bucket; full keys
 * are compared on lookup, so distinct configurations never alias.
 *
 * The constructor computes simCacheKeyHash once and the key carries it:
 * stripe choice, the shard index and the batch dedupe all read the
 * stored hash instead of re-mixing every decision word. The fields are
 * read-only, so the stored hash can never go stale.
 */
class SimCacheKey
{
  public:
    /** @param decisions Canonical decision encoding; callers append
     *         discriminator tags (e.g. training-vs-serving) as extra
     *         trailing elements.
     *  @param config_fingerprint simConfigFingerprint() of the chip +
     *         pass configuration. */
    SimCacheKey(std::vector<uint64_t> decisions,
                uint64_t config_fingerprint);

    const std::vector<uint64_t> &decisions() const { return _decisions; }
    uint64_t configFingerprint() const { return _configFingerprint; }
    /** simCacheKeyHash of this key, computed at construction. */
    uint64_t hash() const { return _hash; }

    /** Exact equality; the stored hashes reject most mismatches first. */
    bool operator==(const SimCacheKey &other) const = default;

  private:
    uint64_t _hash;
    uint64_t _configFingerprint;
    std::vector<uint64_t> _decisions;
};

/** Order-sensitive 64-bit fingerprint of a chip description. */
uint64_t chipFingerprint(const hw::ChipSpec &chip);

/** Fingerprint of a full simulator configuration (chip + passes). */
uint64_t simConfigFingerprint(const SimConfig &config);

/** Hash of a key's fields (stripe/bucket selection only); the value
 *  SimCacheKey::hash() stores. */
uint64_t simCacheKeyHash(std::span<const uint64_t> decisions,
                         uint64_t config_fingerprint);

/** Recompute a key's hash from its fields. */
uint64_t simCacheKeyHash(const SimCacheKey &key);

/** Build a key from a candidate's decision sample, caller-chosen
 *  trailing tags (the exec-mode tag first) and a precomputed
 *  simConfigFingerprint — batched callers fingerprint each config once. */
SimCacheKey makeSimCacheKey(std::span<const size_t> sample,
                            std::span<const uint64_t> tags,
                            uint64_t config_fingerprint);

/** Build a key from a candidate's decision sample, a caller-chosen mode
 *  tag, and the simulator configuration. */
SimCacheKey makeSimCacheKey(const std::vector<size_t> &sample,
                            uint64_t mode_tag, const SimConfig &config);

/** Counter snapshot. */
struct SimCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;

    double hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / double(total) : 0.0;
    }
};

/**
 * The sharded, LRU-bounded memo-cache. Thread-safe; copyable results.
 */
class SimCache
{
  public:
    /**
     * @param capacity   Max cached entries across all shards (>= 1).
     * @param num_shards Mutex stripes; rounded up to at least 1.
     */
    explicit SimCache(size_t capacity, size_t num_shards = 16);

    /** Look up a key; on hit copies the cached result (empty `perOp`)
     *  into `out` and refreshes its LRU position. Counts a hit or miss. */
    bool lookup(const SimCacheKey &key, SimResult &out);

    /** Insert (or overwrite) a key's result, minus its per-op timings,
     *  evicting the shard's least-recently-used entry when over budget. */
    void insert(const SimCacheKey &key, SimResult value);

    /**
     * Batched lookup: keys are grouped by mutex stripe (one pass) so
     * each stripe's lock is acquired ONCE per batch instead of once per
     * key. Stripes are visited in order of their first key, and within a
     * stripe keys are processed in ascending batch position, so hit
     * counting and LRU refresh order are deterministic. On hit,
     * `out[i]` is filled. Returns one hit flag per key.
     */
    std::vector<char> lookupBatch(std::span<const SimCacheKey> keys,
                                  std::vector<SimResult> &out);

    /** Batched insert, one stripe-lock acquisition per stripe touched,
     *  in the same order as lookupBatch. keys and values are parallel
     *  arrays. */
    void insertBatch(std::span<const SimCacheKey> keys,
                     std::span<const SimResult> values);

    /** Default bound on distinct misses handed to one computeMisses
     *  call: keeps thousands of decoded graphs from ever being live at
     *  once, and is the unit of work a fill pool's workers steal. */
    static constexpr size_t kDefaultFillChunk = 256;

    /**
     * Batched memoization: one lookupBatch, then `computeMisses(miss
     * indices) -> results parallel to the miss list` runs OUTSIDE every
     * lock, then one insertBatch of the fresh results. Returns results
     * parallel to `keys`, each with an empty `perOp` (fill results drop
     * theirs on the worker that computed them).
     *
     * Duplicate missing keys within a batch are computed ONCE per
     * distinct key; the result fans out to every duplicate position.
     * `computeMisses` receives chunks of at most `fill_chunk` distinct
     * miss positions (ascending within a chunk) and may therefore be
     * invoked several times per batch; it must be pure — the same
     * position yields the same result regardless of chunking.
     *
     * With a non-null `fill_pool` of more than one worker the chunks
     * are computed concurrently on the pool ("parallel cold-path
     * fill"); `computeMisses` must then also be thread-safe. All cache
     * mutations — the lookup, the write-back, the eviction — still run
     * on the calling thread in ascending batch position, so results,
     * counters, LRU order and save() images are bit-identical at any
     * pool size. A chunk that throws aborts the batch: the exception is
     * rethrown here after every in-flight chunk has drained, and no
     * partial chunk result is inserted (whole chunks that completed are
     * not rolled back; the simulator being pure makes them correct).
     */
    template <typename Fn>
    std::vector<SimResult>
    getOrComputeBatch(std::span<const SimCacheKey> keys, Fn &&computeMisses,
                      exec::ThreadPool *fill_pool = nullptr,
                      size_t fill_chunk = kDefaultFillChunk)
    {
        h2o_assert(fill_chunk > 0, "zero sim-cache fill chunk");
        std::vector<SimResult> results(keys.size());
        std::vector<char> hit = lookupBatch(keys, results);

        // Distinct missing keys, in first-occurrence order. `reps[r]`
        // is the representative batch position of distinct key r;
        // `rep_of[j]` maps the j-th miss position back to its key. The
        // dedupe map points into `keys`: no key is copied.
        std::vector<size_t> reps;
        std::vector<size_t> miss_pos;
        std::vector<size_t> rep_of;
        {
            const size_t n_missing = static_cast<size_t>(
                std::count(hit.begin(), hit.end(), char{0}));
            miss_pos.reserve(n_missing);
            rep_of.reserve(n_missing);
            std::unordered_map<const SimCacheKey *, size_t, KeyPtrHash,
                               KeyPtrEq>
                first_seen;
            first_seen.reserve(n_missing);
            for (size_t i = 0; i < keys.size(); ++i) {
                if (hit[i])
                    continue;
                auto [it, inserted] =
                    first_seen.try_emplace(&keys[i], reps.size());
                if (inserted)
                    reps.push_back(i);
                miss_pos.push_back(i);
                rep_of.push_back(it->second);
            }
        }
        if (reps.empty())
            return results;

        std::vector<SimResult> fresh(reps.size());
        const size_t n_chunks = (reps.size() + fill_chunk - 1) / fill_chunk;
        auto run_chunk = [&](size_t c) {
            size_t lo = c * fill_chunk;
            size_t hi = std::min(reps.size(), lo + fill_chunk);
            std::vector<size_t> part(reps.begin() +
                                         static_cast<ptrdiff_t>(lo),
                                     reps.begin() +
                                         static_cast<ptrdiff_t>(hi));
            std::vector<SimResult> out = computeMisses(part);
            h2o_assert(out.size() == part.size(),
                       "computeMisses returned ", out.size(),
                       " results for ", part.size(), " misses");
            for (SimResult &r : out)
                dropPerOp(r);
            std::move(out.begin(), out.end(),
                      fresh.begin() + static_cast<ptrdiff_t>(lo));
        };
        if (fill_pool != nullptr && fill_pool->size() > 1 && n_chunks > 1) {
            std::vector<std::future<void>> futures;
            futures.reserve(n_chunks);
            for (size_t c = 0; c < n_chunks; ++c)
                futures.push_back(
                    fill_pool->submit([&run_chunk, c] { run_chunk(c); }));
            // Drain every chunk before propagating the first failure so
            // no task outlives the locals it references.
            std::exception_ptr first_error;
            for (auto &f : futures) {
                try {
                    f.get();
                } catch (...) {
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
            if (first_error)
                std::rethrow_exception(first_error);
        } else {
            for (size_t c = 0; c < n_chunks; ++c)
                run_chunk(c);
        }

        // Write-back on the calling thread, ascending representative
        // position: insertion/eviction/recency order is a function of
        // the batch alone, never of worker timing.
        insertAt(keys, reps, fresh);

        // Fan out: duplicate positions copy, the representative moves.
        for (size_t j = 0; j < miss_pos.size(); ++j)
            if (miss_pos[j] != reps[rep_of[j]])
                results[miss_pos[j]] = fresh[rep_of[j]];
        for (size_t r = 0; r < reps.size(); ++r)
            results[reps[r]] = std::move(fresh[r]);
        return results;
    }

    /** Memoize `compute()` under `key`. The computation runs outside
     *  any lock; concurrent misses on one key may compute twice. The
     *  result has an empty `perOp`, hit or miss. */
    template <typename Fn>
    SimResult getOrCompute(const SimCacheKey &key, Fn &&compute)
    {
        SimResult cached;
        if (lookup(key, cached))
            return cached;
        SimResult fresh = compute();
        dropPerOp(fresh);
        insert(key, fresh);
        return fresh;
    }

    /** Snapshot the counters (entries is summed across shards). */
    SimCacheStats stats() const;

    /** Drop every entry; counters are preserved. */
    void clear();

    /**
     * Serialize every cached entry in GLOBAL least-recently-used-first
     * order (the per-entry recency tick, not per-shard list order) in
     * the tagged text format used by exec::Checkpoint streams (format
     * v1, each entry's per-op record written empty). A
     * subsequent load() therefore reproduces the recency order even
     * into a cache with a different capacity or shard count. Counters
     * are not persisted — they describe a process, not the contents.
     */
    void save(std::ostream &os) const;

    /**
     * Merge a save()d stream into this cache via normal inserts (LRU
     * eviction applies if the stream exceeds capacity; the stream's
     * global oldest-first order means the oldest entries are the ones
     * evicted). Entries whose config fingerprint no longer matches any
     * caller's configuration are harmless: exact key equality keeps
     * them from ever aliasing. Per-op timings in older streams are
     * validated and dropped, like every insert's.
     */
    void load(std::istream &is);

    /**
     * Eviction-aware merge of a save()d stream into this cache's LIVE
     * contents: after the merge the cache holds the union of both entry
     * sets, with the stream's entries ranked older than everything
     * computed in this process (their relative oldest-first order is
     * preserved), so when the union exceeds capacity the LRU policy
     * evicts the merged-in (stale) entries first and a key present on
     * both sides keeps this process's value and recency. This is what
     * makes concurrent or sequential fills COMPOSE through one cache
     * file — save-over-existing keeps the globally newest entries —
     * instead of the last writer clobbering the others' work (see
     * saveSimCacheFileMerged). Counters are preserved; merge-driven
     * evictions count as evictions.
     */
    void mergeFrom(std::istream &is);

    /** Total entry budget across shards. */
    size_t capacity() const { return _shardCapacity * _shards.size(); }

  private:
    struct Entry
    {
        SimCacheKey key;
        /** The scalar summary: `perOp` is always empty. */
        SimResult value;
        /** Global recency stamp (higher = more recent); orders save(). */
        uint64_t tick = 0;
    };
    /** Hash/equality through a key pointer, for maps that refer to keys
     *  owned elsewhere (the shard index, the batch dedupe). */
    struct KeyPtrHash
    {
        size_t operator()(const SimCacheKey *k) const
        {
            return static_cast<size_t>(k->hash());
        }
    };
    struct KeyPtrEq
    {
        bool operator()(const SimCacheKey *a, const SimCacheKey *b) const
        {
            return *a == *b;
        }
    };
    struct Shard
    {
        std::mutex mu;
        /** Front = most recently used. */
        std::list<Entry> lru;
        /** Keyed by the address of each entry's own key (list nodes
         *  never move), so an entry stores its key once. An index entry
         *  is erased before the list node it points into. */
        std::unordered_map<const SimCacheKey *, std::list<Entry>::iterator,
                           KeyPtrHash, KeyPtrEq>
            index;
    };

    /** Free a result's per-op timings (clear() would keep capacity). */
    static void dropPerOp(SimResult &r)
    {
        std::vector<OpTiming>().swap(r.perOp);
    }

    Shard &shardFor(const SimCacheKey &key)
    {
        return *_shards[key.hash() % _shards.size()];
    }

    /** Under `shard`'s lock: on hit refresh the entry's LRU position and
     *  copy its value into `out`. */
    bool findLocked(Shard &shard, const SimCacheKey &key, SimResult &out);

    /** Under `shard`'s lock: insert or overwrite (perOp dropped) and
     *  evict the shard's oldest entry when over budget. Returns whether
     *  an entry was evicted. */
    bool insertLocked(Shard &shard, const SimCacheKey &key, SimResult value);

    /** insertBatch of keys[positions[r]] -> values[r]: the write-back
     *  of getOrComputeBatch, without copying its keys. */
    void insertAt(std::span<const SimCacheKey> keys,
                  std::span<const size_t> positions,
                  std::span<const SimResult> values);

    /** Next global recency stamp (see Entry::tick). */
    uint64_t nextTick()
    {
        return _accessTick.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    std::vector<std::unique_ptr<Shard>> _shards;
    size_t _shardCapacity;
    std::atomic<uint64_t> _accessTick{0};
    std::atomic<uint64_t> _hits{0};
    std::atomic<uint64_t> _misses{0};
    std::atomic<uint64_t> _evictions{0};
};

/** Warm-start a cache from a checkpoint file written by
 *  saveSimCacheFileMerged (or a raw save() commit). Returns false —
 *  without touching the cache — when the path is empty or the file does
 *  not exist, so `--sim_cache_file` flags can pass their value through
 *  unconditionally. */
bool warmSimCacheFromFile(SimCache &cache, const std::string &path);

/** Persist a cache to `path` with the eviction-aware merge: any
 *  existing file's entries are mergeFrom()ed first (this process's
 *  entries rank newer), then one atomic CheckpointWriter commit writes
 *  the union. No-op when the path is empty. */
void saveSimCacheFileMerged(SimCache &cache, const std::string &path);

} // namespace h2o::sim

#endif // H2O_SIM_SIM_CACHE_H
