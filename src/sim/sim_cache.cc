#include "sim/sim_cache.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/serialize.h"
#include "exec/checkpoint.h"

namespace h2o::sim {

namespace {

/** SplitMix64-style combine: order-sensitive, avalanche per word. */
uint64_t
mixWord(uint64_t h, uint64_t v)
{
    uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
mixDouble(uint64_t h, double v)
{
    return mixWord(h, std::bit_cast<uint64_t>(v));
}

uint64_t
mixString(uint64_t h, const std::string &s)
{
    h = mixWord(h, s.size());
    for (char c : s)
        h = mixWord(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    return h;
}

} // namespace

uint64_t
chipFingerprint(const hw::ChipSpec &chip)
{
    uint64_t h = 0x6833326f63686970ULL; // "h2ochip"
    h = mixString(h, chip.name);
    h = mixDouble(h, chip.peakTensorFlops);
    h = mixDouble(h, chip.peakVectorFlops);
    h = mixWord(h, chip.tensorTile);
    h = mixDouble(h, chip.hbmCapacityBytes);
    h = mixDouble(h, chip.hbmBandwidth);
    h = mixDouble(h, chip.onChipCapacityBytes);
    h = mixDouble(h, chip.onChipBandwidth);
    h = mixDouble(h, chip.iciBandwidth);
    h = mixDouble(h, chip.idlePowerW);
    h = mixDouble(h, chip.computePowerW);
    h = mixDouble(h, chip.hbmEnergyPerByte);
    h = mixDouble(h, chip.onChipEnergyPerByte);
    return h;
}

uint64_t
simConfigFingerprint(const SimConfig &config)
{
    uint64_t h = chipFingerprint(config.chip);
    h = mixWord(h, config.enableFusion ? 1 : 0);
    h = mixWord(h, config.enableMemoryPlacement ? 2 : 0);
    h = mixDouble(h, config.memory.paramFraction);
    h = mixDouble(h, config.memory.activationFraction);
    return h;
}

uint64_t
simCacheKeyHash(std::span<const uint64_t> decisions,
                uint64_t config_fingerprint)
{
    uint64_t h = config_fingerprint;
    h = mixWord(h, decisions.size());
    for (uint64_t d : decisions)
        h = mixWord(h, d);
    return h;
}

uint64_t
simCacheKeyHash(const SimCacheKey &key)
{
    return simCacheKeyHash(key.decisions(), key.configFingerprint());
}

SimCacheKey::SimCacheKey(std::vector<uint64_t> decisions,
                         uint64_t config_fingerprint)
    : _hash(simCacheKeyHash(decisions, config_fingerprint)),
      _configFingerprint(config_fingerprint),
      _decisions(std::move(decisions))
{
}

SimCacheKey
makeSimCacheKey(std::span<const size_t> sample,
                std::span<const uint64_t> tags, uint64_t config_fingerprint)
{
    std::vector<uint64_t> decisions;
    decisions.reserve(sample.size() + tags.size());
    for (size_t d : sample)
        decisions.push_back(static_cast<uint64_t>(d));
    decisions.insert(decisions.end(), tags.begin(), tags.end());
    return SimCacheKey(std::move(decisions), config_fingerprint);
}

SimCacheKey
makeSimCacheKey(const std::vector<size_t> &sample, uint64_t mode_tag,
                const SimConfig &config)
{
    return makeSimCacheKey(sample, std::span<const uint64_t>(&mode_tag, 1),
                           simConfigFingerprint(config));
}

SimCache::SimCache(size_t capacity, size_t num_shards)
{
    h2o_assert(capacity > 0, "sim cache with zero capacity");
    if (num_shards == 0)
        num_shards = 1;
    // Never more shards than entries: every shard must hold >= 1 entry.
    num_shards = std::min(num_shards, capacity);
    _shardCapacity = (capacity + num_shards - 1) / num_shards;
    _shards.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s)
        _shards.push_back(std::make_unique<Shard>());
}

bool
SimCache::findLocked(Shard &shard, const SimCacheKey &key, SimResult &out)
{
    auto it = shard.index.find(&key);
    if (it == shard.index.end())
        return false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->tick = nextTick();
    out = it->second->value;
    return true;
}

bool
SimCache::insertLocked(Shard &shard, const SimCacheKey &key,
                       SimResult value)
{
    dropPerOp(value);
    auto it = shard.index.find(&key);
    if (it != shard.index.end()) {
        // Concurrent miss raced us here; results are identical (the
        // simulator is pure), keep the freshest and refresh LRU.
        it->second->value = std::move(value);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        it->second->tick = nextTick();
        return false;
    }
    shard.lru.push_front(Entry{key, std::move(value), nextTick()});
    shard.index.emplace(&shard.lru.front().key, shard.lru.begin());
    if (shard.index.size() <= _shardCapacity)
        return false;
    // The index entry points into the node: erase it first.
    shard.index.erase(&shard.lru.back().key);
    shard.lru.pop_back();
    return true;
}

bool
SimCache::lookup(const SimCacheKey &key, SimResult &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    bool hit = findLocked(shard, key, out);
    (hit ? _hits : _misses).fetch_add(1, std::memory_order_relaxed);
    return hit;
}

void
SimCache::insert(const SimCacheKey &key, SimResult value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (insertLocked(shard, key, std::move(value)))
        _evictions.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/**
 * Visits batch items 0..n-1 grouped by stripe in one counting-sort
 * pass: `visit(stripe, items)` once per stripe touched, stripes in order
 * of their first item, items ascending within a stripe. The order fixes
 * the recency ticks, so LRU order and save() images depend on the batch
 * alone.
 */
template <typename StripeOf, typename Visit>
void
forEachStripeGroup(size_t n, size_t n_stripes, StripeOf &&stripe_of,
                   Visit &&visit)
{
    std::vector<size_t> stripe(n);
    std::vector<size_t> count(n_stripes, 0);
    std::vector<size_t> order; // stripes by first appearance
    for (size_t i = 0; i < n; ++i) {
        stripe[i] = stripe_of(i);
        if (count[stripe[i]]++ == 0)
            order.push_back(stripe[i]);
    }
    std::vector<size_t> start(n_stripes, 0);
    size_t at = 0;
    for (size_t s : order) {
        start[s] = at;
        at += count[s];
    }
    std::vector<size_t> items(n);
    std::vector<size_t> cursor = start;
    for (size_t i = 0; i < n; ++i)
        items[cursor[stripe[i]]++] = i;
    for (size_t s : order)
        visit(s, std::span<const size_t>(items.data() + start[s], count[s]));
}

} // namespace

std::vector<char>
SimCache::lookupBatch(std::span<const SimCacheKey> keys,
                      std::vector<SimResult> &out)
{
    size_t n = keys.size();
    if (out.size() < n)
        out.resize(n);
    std::vector<char> hit(n, 0);
    uint64_t hits = 0;
    forEachStripeGroup(
        n, _shards.size(),
        [&](size_t i) { return keys[i].hash() % _shards.size(); },
        [&](size_t s, std::span<const size_t> items) {
            Shard &shard = *_shards[s];
            std::lock_guard<std::mutex> lock(shard.mu);
            for (size_t i : items) {
                if (findLocked(shard, keys[i], out[i])) {
                    hit[i] = 1;
                    ++hits;
                }
            }
        });
    if (hits)
        _hits.fetch_add(hits, std::memory_order_relaxed);
    if (n > hits)
        _misses.fetch_add(n - hits, std::memory_order_relaxed);
    return hit;
}

void
SimCache::insertAt(std::span<const SimCacheKey> keys,
                   std::span<const size_t> positions,
                   std::span<const SimResult> values)
{
    h2o_assert(positions.size() == values.size(),
               "insertBatch key/value count mismatch");
    uint64_t evictions = 0;
    forEachStripeGroup(
        positions.size(), _shards.size(),
        [&](size_t r) { return keys[positions[r]].hash() % _shards.size(); },
        [&](size_t s, std::span<const size_t> items) {
            Shard &shard = *_shards[s];
            std::lock_guard<std::mutex> lock(shard.mu);
            for (size_t r : items)
                if (insertLocked(shard, keys[positions[r]], values[r]))
                    ++evictions;
        });
    if (evictions)
        _evictions.fetch_add(evictions, std::memory_order_relaxed);
}

void
SimCache::insertBatch(std::span<const SimCacheKey> keys,
                      std::span<const SimResult> values)
{
    std::vector<size_t> positions(keys.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    insertAt(keys, positions, values);
}

SimCacheStats
SimCache::stats() const
{
    SimCacheStats s;
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.evictions = _evictions.load(std::memory_order_relaxed);
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        s.entries += shard->index.size();
    }
    return s;
}

void
SimCache::clear()
{
    for (auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->index.clear();
        shard->lru.clear();
    }
}

// ------------------------------------------------------- persistence

namespace {

constexpr uint64_t kSimCacheFormatVersion = 1;

void
writeResult(std::ostream &os, const SimResult &r)
{
    common::writeTagged(
        os, "res",
        {r.stepTimeSec, r.totalFlops, r.achievedFlops,
         r.operationalIntensity, r.hbmBytes, r.onChipBytes,
         r.networkBytes, r.hbmBandwidthUsed, r.onChipBandwidthUsed,
         r.tensorBusySec, r.vpuBusySec, r.hbmSec, r.onChipSec,
         r.networkSec, r.criticalPathSec, r.tensorUtilization,
         r.avgPowerW, r.energyPerStepJ});
    common::writeTaggedU64(os, "res_meta",
                           {static_cast<uint64_t>(r.boundBy),
                            static_cast<uint64_t>(r.liveOps),
                            static_cast<uint64_t>(r.fusedOps),
                            r.paramsResident ? 1ULL : 0ULL});
    // Format v1 keeps its per-op record; cached results have none.
    common::writeTagged(os, "res_per_op", {});
}

SimResult
readResult(std::istream &is)
{
    SimResult r;
    auto d = common::readTagged(is, "res");
    if (d.size() != 18)
        h2o_fatal("malformed sim-cache result record (", d.size(),
                  " scalars)");
    r.stepTimeSec = d[0];
    r.totalFlops = d[1];
    r.achievedFlops = d[2];
    r.operationalIntensity = d[3];
    r.hbmBytes = d[4];
    r.onChipBytes = d[5];
    r.networkBytes = d[6];
    r.hbmBandwidthUsed = d[7];
    r.onChipBandwidthUsed = d[8];
    r.tensorBusySec = d[9];
    r.vpuBusySec = d[10];
    r.hbmSec = d[11];
    r.onChipSec = d[12];
    r.networkSec = d[13];
    r.criticalPathSec = d[14];
    r.tensorUtilization = d[15];
    r.avgPowerW = d[16];
    r.energyPerStepJ = d[17];
    auto meta = common::readTaggedU64(is, "res_meta");
    if (meta.size() != 4)
        h2o_fatal("malformed sim-cache result metadata");
    r.boundBy = static_cast<hw::BoundBy>(meta[0]);
    r.liveOps = static_cast<size_t>(meta[1]);
    r.fusedOps = static_cast<size_t>(meta[2]);
    r.paramsResident = meta[3] != 0;
    // Streams written before the cache dropped per-op timings carry
    // them (7 doubles per op): validated, then discarded.
    auto per_op = common::readTagged(is, "res_per_op");
    if (per_op.size() % 7 != 0)
        h2o_fatal("malformed sim-cache per-op record");
    return r;
}

SimCacheKey
readKey(std::istream &is)
{
    auto key_words = common::readTaggedU64(is, "key");
    if (key_words.empty())
        h2o_fatal("malformed sim-cache key record");
    return SimCacheKey(
        std::vector<uint64_t>(key_words.begin() + 1, key_words.end()),
        key_words[0]);
}

/** Reads a save() stream's header; returns its entry count. */
size_t
readHeader(std::istream &is)
{
    auto header = common::readTaggedU64(is, "sim_cache");
    if (header.size() != 2 || header[0] != kSimCacheFormatVersion)
        h2o_fatal("unsupported sim-cache stream header");
    return static_cast<size_t>(header[1]);
}

} // namespace

void
SimCache::save(std::ostream &os) const
{
    // Snapshot under the stripe locks first so one consistent image is
    // serialized even while other threads keep inserting.
    std::vector<const Entry *> entries;
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(_shards.size());
    for (const auto &shard : _shards)
        locks.emplace_back(shard->mu);
    for (const auto &shard : _shards)
        for (const Entry &e : shard->lru)
            entries.push_back(&e);

    // Global least-recently-used first (the recency ticks interleave
    // the stripes): replaying inserts in this order reproduces the
    // cross-shard recency order on load, into ANY target geometry, and
    // a smaller-capacity load evicts the globally oldest entries.
    std::sort(entries.begin(), entries.end(),
              [](const Entry *a, const Entry *b) {
                  return a->tick < b->tick;
              });

    common::writeTaggedU64(os, "sim_cache",
                           {kSimCacheFormatVersion,
                            static_cast<uint64_t>(entries.size())});
    for (const Entry *e : entries) {
        const std::vector<uint64_t> &decisions = e->key.decisions();
        std::vector<uint64_t> key_words;
        key_words.reserve(decisions.size() + 1);
        key_words.push_back(e->key.configFingerprint());
        key_words.insert(key_words.end(), decisions.begin(),
                         decisions.end());
        common::writeTaggedU64(os, "key", key_words);
        writeResult(os, e->value);
    }
}

void
SimCache::load(std::istream &is)
{
    size_t count = readHeader(is);
    for (size_t i = 0; i < count; ++i) {
        SimCacheKey key = readKey(is);
        insert(key, readResult(is));
    }
}

void
SimCache::mergeFrom(std::istream &is)
{
    // Parse the incoming stream up front (save() wrote it globally
    // oldest-first; that relative order is preserved below).
    size_t count = readHeader(is);
    std::vector<std::pair<SimCacheKey, SimResult>> incoming;
    incoming.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        SimCacheKey key = readKey(is);
        incoming.emplace_back(std::move(key), readResult(is));
    }

    // Snapshot the live entries, globally oldest-first by recency tick.
    std::vector<Entry> live;
    {
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(_shards.size());
        for (const auto &shard : _shards)
            locks.emplace_back(shard->mu);
        for (const auto &shard : _shards)
            for (const Entry &e : shard->lru)
                live.push_back(e);
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  return a.tick < b.tick;
              });
    // Points into `live`, which is not resized from here on.
    std::unordered_set<const SimCacheKey *, KeyPtrHash, KeyPtrEq> live_keys;
    live_keys.reserve(live.size());
    for (const Entry &e : live)
        live_keys.insert(&e.key);

    // Rebuild: stream-only entries first (they take the oldest recency
    // ranks), then the live entries oldest-to-newest, so LRU eviction
    // under capacity pressure drops the merged-in entries before
    // anything this process computed, and a key present on both sides
    // keeps the live value.
    clear();
    for (auto &[key, value] : incoming)
        if (!live_keys.contains(&key))
            insert(key, std::move(value));
    for (Entry &e : live)
        insert(e.key, std::move(e.value));
}

bool
warmSimCacheFromFile(SimCache &cache, const std::string &path)
{
    if (path.empty() || !exec::CheckpointReader::exists(path))
        return false;
    exec::CheckpointReader reader(path);
    cache.load(reader.stream());
    return true;
}

void
saveSimCacheFileMerged(SimCache &cache, const std::string &path)
{
    if (path.empty())
        return;
    if (exec::CheckpointReader::exists(path)) {
        exec::CheckpointReader reader(path);
        cache.mergeFrom(reader.stream());
    }
    exec::CheckpointWriter writer;
    cache.save(writer.stream());
    writer.commit(path);
}

} // namespace h2o::sim
