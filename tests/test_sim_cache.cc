/**
 * @file
 * SimCache unit tests: exact hit semantics, no cross-chip/config
 * collisions, LRU eviction, the capacity bound under concurrent mixed
 * lookup/insert traffic (runs under the `concurrency` label),
 * batch-level dedupe of duplicate missing keys, and save()/load()
 * round-trips that preserve global recency order.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "exec/checkpoint.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

using namespace h2o;

namespace {

sim::SimResult
resultWithStepTime(double step_sec)
{
    sim::SimResult r;
    r.stepTimeSec = step_sec;
    r.totalFlops = step_sec * 2.0;
    r.liveOps = 3;
    r.perOp.assign(3, sim::OpTiming{});
    r.perOp[1].seconds = step_sec / 3.0;
    return r;
}

sim::SimConfig
configFor(hw::ChipModel model)
{
    return sim::SimConfig{hw::chipSpec(model), true, true, {}};
}

} // namespace

TEST(SimCache, HitReturnsExactCachedResult)
{
    // The cache holds scalar summaries: every scalar field comes back
    // exact, and the per-op timings are dropped on insert, so perOp is
    // empty after lookup and after a save()/load() round trip.
    sim::SimCache cache(16);
    sim::SimCacheKey key =
        sim::makeSimCacheKey({1, 2, 3}, 0, configFor(hw::ChipModel::TpuV4));

    sim::SimResult out;
    EXPECT_FALSE(cache.lookup(key, out));

    sim::SimResult stored = resultWithStepTime(0.125);
    stored.boundBy = hw::BoundBy::Network;
    stored.fusedOps = 2;
    stored.paramsResident = true;
    stored.energyPerStepJ = 3.5;
    ASSERT_FALSE(stored.perOp.empty());
    cache.insert(key, stored);
    auto expectScalarCopy = [&](const sim::SimResult &r) {
        EXPECT_EQ(r.stepTimeSec, stored.stepTimeSec);
        EXPECT_EQ(r.totalFlops, stored.totalFlops);
        EXPECT_EQ(r.energyPerStepJ, stored.energyPerStepJ);
        EXPECT_EQ(r.boundBy, stored.boundBy);
        EXPECT_EQ(r.liveOps, stored.liveOps);
        EXPECT_EQ(r.fusedOps, stored.fusedOps);
        EXPECT_EQ(r.paramsResident, stored.paramsResident);
        EXPECT_TRUE(r.perOp.empty());
    };
    ASSERT_TRUE(cache.lookup(key, out));
    expectScalarCopy(out);

    sim::SimCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);

    std::stringstream ss;
    cache.save(ss);
    sim::SimCache loaded(16);
    loaded.load(ss);
    sim::SimResult reloaded = resultWithStepTime(9.0);
    ASSERT_TRUE(loaded.lookup(key, reloaded));
    expectScalarCopy(reloaded);
}

TEST(SimCache, LoadDropsPerOpRecordsOfOlderStreams)
{
    // A format-v1 stream written before the cache dropped per-op
    // timings carries them: it still loads, scalars exact, perOp empty.
    sim::SimCacheKey key =
        sim::makeSimCacheKey({4, 5}, 1, configFor(hw::ChipModel::TpuV4i));
    std::stringstream ss;
    common::writeTaggedU64(ss, "sim_cache", {1, 1});
    std::vector<uint64_t> key_words{key.configFingerprint()};
    key_words.insert(key_words.end(), key.decisions().begin(),
                     key.decisions().end());
    common::writeTaggedU64(ss, "key", key_words);
    std::vector<double> scalars(18, 0.0);
    scalars[0] = 0.25; // stepTimeSec
    common::writeTagged(ss, "res", scalars);
    common::writeTaggedU64(ss, "res_meta", {0, 2, 0, 1});
    common::writeTagged(ss, "res_per_op",
                        {0.1, 0, 0, 0, 0, 0, 0, 0.15, 0, 0, 0, 0, 0, 0});

    sim::SimCache cache(8);
    cache.load(ss);
    sim::SimResult out;
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_EQ(out.stepTimeSec, 0.25);
    EXPECT_EQ(out.liveOps, 2u);
    EXPECT_TRUE(out.paramsResident);
    EXPECT_TRUE(out.perOp.empty());
}

TEST(SimCache, GetOrComputeComputesOnceThenHits)
{
    sim::SimCache cache(16);
    sim::SimCacheKey key =
        sim::makeSimCacheKey({7}, 1, configFor(hw::ChipModel::TpuV4i));
    size_t computes = 0;
    auto compute = [&] {
        ++computes;
        return resultWithStepTime(0.5);
    };
    EXPECT_EQ(cache.getOrCompute(key, compute).stepTimeSec, 0.5);
    EXPECT_EQ(cache.getOrCompute(key, compute).stepTimeSec, 0.5);
    EXPECT_EQ(computes, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(SimCache, DistinctChipsAndConfigsNeverCollide)
{
    sim::SimCache cache(64);
    std::vector<size_t> sample{4, 0, 2, 9};

    // Same decisions, three axes of config difference: chip model,
    // pass toggles, memory partition fractions.
    sim::SimConfig tpu = configFor(hw::ChipModel::TpuV4);
    sim::SimConfig gpu = configFor(hw::ChipModel::GpuV100);
    sim::SimConfig nofuse = tpu;
    nofuse.enableFusion = false;
    sim::SimConfig repart = tpu;
    repart.memory.paramFraction = 0.2;
    repart.memory.activationFraction = 0.8;

    std::vector<sim::SimConfig> configs{tpu, gpu, nofuse, repart};
    for (size_t i = 0; i < configs.size(); ++i)
        cache.insert(sim::makeSimCacheKey(sample, 0, configs[i]),
                     resultWithStepTime(double(i + 1)));
    // Same config, different mode tag (training vs serving).
    cache.insert(sim::makeSimCacheKey(sample, 1, tpu),
                 resultWithStepTime(99.0));

    sim::SimResult out;
    for (size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(cache.lookup(
            sim::makeSimCacheKey(sample, 0, configs[i]), out));
        EXPECT_EQ(out.stepTimeSec, double(i + 1))
            << "config " << i << " aliased another entry";
    }
    ASSERT_TRUE(cache.lookup(sim::makeSimCacheKey(sample, 1, tpu), out));
    EXPECT_EQ(out.stepTimeSec, 99.0);
}

TEST(SimCache, AnySingleChipFieldChangeSeparatesKeys)
{
    // Multi-target search relies on the chip fingerprint keeping k
    // chips' keyspaces disjoint — two chips differing in ANY one
    // ChipSpec field must never alias, including through mergeFrom and
    // save()/load() round trips.
    hw::ChipSpec base = hw::tpuV4i();
    std::vector<hw::ChipSpec> variants;
    auto variant = [&](auto mutate) {
        hw::ChipSpec c = base;
        mutate(c);
        variants.push_back(c);
    };
    variant([](hw::ChipSpec &c) { c.name = "TPUv4j"; });
    variant([](hw::ChipSpec &c) { c.peakTensorFlops += 1.0; });
    variant([](hw::ChipSpec &c) { c.peakVectorFlops += 1.0; });
    variant([](hw::ChipSpec &c) { c.tensorTile += 1; });
    variant([](hw::ChipSpec &c) { c.hbmCapacityBytes += 1.0; });
    variant([](hw::ChipSpec &c) { c.hbmBandwidth += 1.0; });
    variant([](hw::ChipSpec &c) { c.onChipCapacityBytes += 1.0; });
    variant([](hw::ChipSpec &c) { c.onChipBandwidth += 1.0; });
    variant([](hw::ChipSpec &c) { c.iciBandwidth += 1.0; });
    variant([](hw::ChipSpec &c) { c.idlePowerW += 1.0; });
    variant([](hw::ChipSpec &c) { c.computePowerW += 1.0; });
    variant([](hw::ChipSpec &c) { c.hbmEnergyPerByte += 1e-12; });
    variant([](hw::ChipSpec &c) { c.onChipEnergyPerByte += 1e-12; });

    for (size_t i = 0; i < variants.size(); ++i)
        EXPECT_NE(sim::chipFingerprint(variants[i]),
                  sim::chipFingerprint(base))
            << "field " << i << " does not reach the fingerprint";

    std::vector<size_t> sample{3, 1, 4};
    auto key_for = [&](const hw::ChipSpec &chip) {
        return sim::makeSimCacheKey(sample, 0,
                                    sim::SimConfig{chip, true, true, {}});
    };
    sim::SimCache cache(64);
    cache.insert(key_for(base), resultWithStepTime(0.5));
    for (size_t i = 0; i < variants.size(); ++i)
        cache.insert(key_for(variants[i]),
                     resultWithStepTime(double(i + 1)));
    EXPECT_EQ(cache.stats().entries, variants.size() + 1);

    auto expect_disjoint = [&](sim::SimCache &c, const char *stage) {
        sim::SimResult out;
        ASSERT_TRUE(c.lookup(key_for(base), out)) << stage;
        EXPECT_EQ(out.stepTimeSec, 0.5) << stage;
        for (size_t i = 0; i < variants.size(); ++i) {
            ASSERT_TRUE(c.lookup(key_for(variants[i]), out))
                << stage << " field " << i;
            EXPECT_EQ(out.stepTimeSec, double(i + 1))
                << stage << " field " << i << " aliased another chip";
        }
    };
    expect_disjoint(cache, "direct");

    // save()/load() round trip preserves the separation.
    std::ostringstream os;
    cache.save(os);
    sim::SimCache reloaded(64);
    std::istringstream is(os.str());
    reloaded.load(is);
    expect_disjoint(reloaded, "save/load");

    // mergeFrom into a cache already holding the base entry: the
    // variants union in WITHOUT touching the base chip's value.
    sim::SimCache merged(64);
    merged.insert(key_for(base), resultWithStepTime(0.5));
    std::istringstream is2(os.str());
    merged.mergeFrom(is2);
    EXPECT_EQ(merged.stats().entries, variants.size() + 1);
    expect_disjoint(merged, "mergeFrom");
}

TEST(SimCache, LruEvictsLeastRecentlyUsed)
{
    // One shard, room for two entries: classic A,B, touch A, add C.
    sim::SimCache cache(2, 1);
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    cache.insert(key(1), resultWithStepTime(1.0));
    cache.insert(key(2), resultWithStepTime(2.0));
    sim::SimResult out;
    ASSERT_TRUE(cache.lookup(key(1), out)); // refresh A
    cache.insert(key(3), resultWithStepTime(3.0)); // evicts B
    EXPECT_TRUE(cache.lookup(key(1), out));
    EXPECT_FALSE(cache.lookup(key(2), out));
    EXPECT_TRUE(cache.lookup(key(3), out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().entries, cache.capacity());
}

TEST(SimCache, CapacityBoundHoldsUnderConcurrentAccess)
{
    constexpr size_t kCapacity = 64;
    constexpr size_t kThreads = 8;
    constexpr size_t kKeysPerThread = 500;
    sim::SimCache cache(kCapacity, 8);
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);

    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (size_t i = 0; i < kKeysPerThread; ++i) {
                // Overlapping key ranges across threads: a mix of
                // genuine hits, racing double-computes, and evictions.
                size_t id = (t % 2) * 7919 + i;
                sim::SimCacheKey key =
                    sim::makeSimCacheKey({id, t % 2}, 0, cfg);
                sim::SimResult r = cache.getOrCompute(key, [&] {
                    return resultWithStepTime(double(id + 1));
                });
                // Whoever computed it, the value must be the pure
                // function of the key.
                EXPECT_EQ(r.stepTimeSec, double(id + 1));
            }
        });
    }
    for (auto &w : workers)
        w.join();

    sim::SimCacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, cache.capacity());
    EXPECT_EQ(stats.hits + stats.misses,
              uint64_t(kThreads) * kKeysPerThread);
    EXPECT_GT(stats.evictions, 0u);
}

TEST(SimCache, BatchDedupesDuplicateMissingKeys)
{
    // Regression: a batch carrying the same missing key several times
    // must simulate it ONCE; every duplicate position still gets the
    // result. Run the exact same shape serially and on a fill pool.
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    // 6 distinct keys, each appearing 3 times, interleaved.
    std::vector<sim::SimCacheKey> keys;
    for (size_t rep = 0; rep < 3; ++rep)
        for (size_t i = 0; i < 6; ++i)
            keys.push_back(key(i));

    for (bool pooled : {false, true}) {
        sim::SimCache cache(64);
        exec::ThreadPool pool(pooled ? 4 : 1);
        std::atomic<uint64_t> computed{0};
        auto compute = [&](const std::vector<size_t> &misses) {
            computed.fetch_add(misses.size());
            std::vector<sim::SimResult> out;
            for (size_t m : misses)
                out.push_back(
                    resultWithStepTime(double(keys[m].decisions()[0] + 1)));
            return out;
        };
        // fill_chunk=2: the duplicates of a key land in chunks that did
        // NOT compute it, so fan-out across chunk boundaries is covered.
        auto results =
            cache.getOrComputeBatch(keys, compute, &pool, /*chunk=*/2);
        EXPECT_EQ(computed.load(), 6u) << (pooled ? "pooled" : "serial");
        ASSERT_EQ(results.size(), keys.size());
        for (size_t j = 0; j < keys.size(); ++j)
            EXPECT_EQ(results[j].stepTimeSec,
                      double(keys[j].decisions()[0] + 1));
        // The cold batch counts every position as a miss (none were
        // served from the cache), but only distinct keys were inserted.
        sim::SimCacheStats stats = cache.stats();
        EXPECT_EQ(stats.misses, keys.size());
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.entries, 6u);
    }
}

TEST(SimCache, BatchesVisitStripesInFirstKeyOrderPositionsAscending)
{
    // The batch order contract behind deterministic recency: stripes in
    // order of their first key, keys ascending within a stripe. A cache
    // fed key by key in exactly that order must save() the same bytes,
    // after insertBatch and again after lookupBatch.
    const size_t shards = 4;
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    std::vector<sim::SimCacheKey> keys;
    std::vector<sim::SimResult> values;
    for (size_t i = 0; i < 12; ++i) {
        keys.push_back(sim::makeSimCacheKey({i}, 0, cfg));
        values.push_back(resultWithStepTime(double(i + 1)));
    }
    // Positions of `ks` in the contract's order.
    auto grouped = [&](const std::vector<sim::SimCacheKey> &ks) {
        std::vector<size_t> stripes; // by first appearance
        for (const auto &k : ks) {
            size_t st = k.hash() % shards;
            if (std::find(stripes.begin(), stripes.end(), st) ==
                stripes.end())
                stripes.push_back(st);
        }
        std::vector<size_t> order;
        for (size_t st : stripes)
            for (size_t i = 0; i < ks.size(); ++i)
                if (ks[i].hash() % shards == st)
                    order.push_back(i);
        return order;
    };
    std::vector<size_t> order = grouped(keys);
    std::vector<size_t> identity(keys.size());
    std::iota(identity.begin(), identity.end(), size_t{0});
    ASSERT_NE(order, identity) << "stripes happen to be contiguous";

    auto image = [](const sim::SimCache &c) {
        std::ostringstream os;
        c.save(os);
        return os.str();
    };
    sim::SimCache batched(64, shards);
    sim::SimCache serial(64, shards);
    batched.insertBatch(keys, values);
    for (size_t i : order)
        serial.insert(keys[i], values[i]);
    EXPECT_EQ(image(batched), image(serial));

    // Reverse the batch so the lookup order differs from the inserts'.
    std::vector<sim::SimCacheKey> reversed(keys.rbegin(), keys.rend());
    std::vector<sim::SimResult> out;
    auto hit = batched.lookupBatch(reversed, out);
    EXPECT_EQ(std::count(hit.begin(), hit.end(), char{1}), 12);
    sim::SimResult r;
    for (size_t i : grouped(reversed))
        ASSERT_TRUE(serial.lookup(reversed[i], r));
    EXPECT_EQ(image(batched), image(serial));
}

TEST(SimCache, BatchExceptionPropagatesFromPooledChunk)
{
    sim::SimCache cache(64);
    exec::ThreadPool pool(3);
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    std::vector<sim::SimCacheKey> keys;
    for (size_t i = 0; i < 12; ++i)
        keys.push_back(sim::makeSimCacheKey({i}, 0, cfg));
    auto compute = [&](const std::vector<size_t> &misses)
        -> std::vector<sim::SimResult> {
        if (misses.front() >= 4)
            throw std::runtime_error("chunk failed");
        std::vector<sim::SimResult> out(misses.size());
        return out;
    };
    EXPECT_THROW(cache.getOrComputeBatch(keys, compute, &pool, 4),
                 std::runtime_error);
    // No partial batch write-back happened after the failure.
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SimCache, SaveLoadRoundTripPreservesContentsAndRecency)
{
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    sim::SimCache cache(8, 2);
    for (size_t i = 0; i < 4; ++i)
        cache.insert(key(i), resultWithStepTime(double(i + 1)));
    // Touch 0 and 2 so recency order is 1 < 3 < 0 < 2 (oldest first).
    sim::SimResult out;
    ASSERT_TRUE(cache.lookup(key(0), out));
    ASSERT_TRUE(cache.lookup(key(2), out));

    std::ostringstream os;
    cache.save(os);

    // Full-capacity load: every entry and value survives.
    sim::SimCache same(8, 2);
    std::istringstream is(os.str());
    same.load(is);
    EXPECT_EQ(same.stats().entries, 4u);
    for (size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(same.lookup(key(i), out)) << "entry " << i;
        EXPECT_EQ(out.stepTimeSec, double(i + 1));
    }

    // A loaded cache saves the same recency order it was given: the
    // round trip is byte-stable modulo the hits the verification above
    // performed — so save from an untouched copy instead.
    sim::SimCache copy(8, 2);
    std::istringstream is2(os.str());
    copy.load(is2);
    std::ostringstream os2;
    copy.save(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(SimCache, LoadIntoSmallerCapacityEvictsGloballyOldestFirst)
{
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    // Source: 6 entries across 3 stripes; refresh 1 and 4 so the
    // global oldest-first order is 0,2,3,5,1,4.
    sim::SimCache cache(16, 3);
    for (size_t i = 0; i < 6; ++i)
        cache.insert(key(i), resultWithStepTime(double(i + 1)));
    sim::SimResult out;
    ASSERT_TRUE(cache.lookup(key(1), out));
    ASSERT_TRUE(cache.lookup(key(4), out));
    std::ostringstream os;
    cache.save(os);

    // Target holds 2 entries in ONE stripe: replaying oldest-first must
    // leave exactly the two most recently used keys, 1 and 4 — even
    // though the source kept them in different stripes.
    sim::SimCache small(2, 1);
    std::istringstream is(os.str());
    small.load(is);
    EXPECT_EQ(small.stats().entries, 2u);
    EXPECT_TRUE(small.lookup(key(1), out));
    EXPECT_EQ(out.stepTimeSec, 2.0);
    EXPECT_TRUE(small.lookup(key(4), out));
    EXPECT_EQ(out.stepTimeSec, 5.0);
    for (size_t i : {0u, 2u, 3u, 5u})
        EXPECT_FALSE(small.lookup(key(i), out)) << "entry " << i;
}

TEST(SimCache, MergeFromUnionsStreamEntriesAsOlder)
{
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    // The stream holds keys 0,1,2 (value = i+1); the live cache holds
    // 2,3 with a DIFFERENT value for the duplicate key 2.
    sim::SimCache source(8);
    for (size_t i = 0; i < 3; ++i)
        source.insert(key(i), resultWithStepTime(double(i + 1)));
    std::ostringstream os;
    source.save(os);

    sim::SimCache cache(8);
    cache.insert(key(2), resultWithStepTime(30.0));
    cache.insert(key(3), resultWithStepTime(40.0));
    std::istringstream is(os.str());
    cache.mergeFrom(is);

    // Union of keys; the live value wins the duplicate.
    EXPECT_EQ(cache.stats().entries, 4u);
    sim::SimResult out;
    EXPECT_TRUE(cache.lookup(key(0), out));
    EXPECT_EQ(out.stepTimeSec, 1.0);
    EXPECT_TRUE(cache.lookup(key(1), out));
    EXPECT_EQ(out.stepTimeSec, 2.0);
    EXPECT_TRUE(cache.lookup(key(2), out));
    EXPECT_EQ(out.stepTimeSec, 30.0);
    EXPECT_TRUE(cache.lookup(key(3), out));
    EXPECT_EQ(out.stepTimeSec, 40.0);
}

TEST(SimCache, MergeFromUnderCapacityEvictsStreamEntriesFirst)
{
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    sim::SimCache source(8, 1);
    for (size_t i = 0; i < 3; ++i)
        source.insert(key(i), resultWithStepTime(double(i + 1)));
    std::ostringstream os;
    source.save(os);

    // A 3-entry single-stripe cache already holding 2 live entries:
    // merging 3 stream-only keys must keep BOTH live entries (they
    // rank newer) and only the newest stream survivor.
    sim::SimCache cache(3, 1);
    cache.insert(key(10), resultWithStepTime(10.0));
    cache.insert(key(11), resultWithStepTime(11.0));
    std::istringstream is(os.str());
    cache.mergeFrom(is);

    EXPECT_EQ(cache.stats().entries, 3u);
    sim::SimResult out;
    EXPECT_TRUE(cache.lookup(key(10), out));
    EXPECT_TRUE(cache.lookup(key(11), out));
    EXPECT_TRUE(cache.lookup(key(2), out)); // newest stream entry
    EXPECT_FALSE(cache.lookup(key(0), out));
    EXPECT_FALSE(cache.lookup(key(1), out));
}

TEST(SimCache, WarmAndMergedSaveFileHelpers)
{
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    std::string path = testing::TempDir() + "/h2o_simcache_warmfile";
    std::remove(path.c_str());

    // Empty path and missing file are clean no-ops.
    sim::SimCache cache(8);
    EXPECT_FALSE(sim::warmSimCacheFromFile(cache, ""));
    EXPECT_FALSE(sim::warmSimCacheFromFile(cache, path));
    saveSimCacheFileMerged(cache, ""); // no file appears
    EXPECT_FALSE(exec::CheckpointReader::exists(""));

    // First run: simulate keys 0,1 and save.
    cache.insert(key(0), resultWithStepTime(1.0));
    cache.insert(key(1), resultWithStepTime(2.0));
    saveSimCacheFileMerged(cache, path);
    ASSERT_TRUE(exec::CheckpointReader::exists(path));

    // Second run: warm-start from the file, add key 2, merge-save.
    sim::SimCache second(8);
    EXPECT_TRUE(sim::warmSimCacheFromFile(second, path));
    EXPECT_EQ(second.stats().entries, 2u);
    second.insert(key(2), resultWithStepTime(3.0));
    saveSimCacheFileMerged(second, path);

    // Third run sees the union of both runs' work.
    sim::SimCache third(8);
    EXPECT_TRUE(sim::warmSimCacheFromFile(third, path));
    EXPECT_EQ(third.stats().entries, 3u);
    sim::SimResult out;
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(third.lookup(key(i), out));
        EXPECT_EQ(out.stepTimeSec, double(i + 1));
    }
    std::remove(path.c_str());
}

TEST(SimCache, MergedSaveKeepsOtherProcessEntries)
{
    // Two processes sharing one cache file: the second save must not
    // wipe the first process's entries (the merge in "save over
    // existing").
    sim::SimConfig cfg = configFor(hw::ChipModel::TpuV4);
    auto key = [&](size_t i) {
        return sim::makeSimCacheKey({i}, 0, cfg);
    };
    std::string path = testing::TempDir() + "/h2o_simcache_sharedfile";
    std::remove(path.c_str());

    sim::SimCache a(8);
    a.insert(key(0), resultWithStepTime(1.0));
    saveSimCacheFileMerged(a, path);

    // Process B never saw key 0 (did NOT warm-start) yet key 0
    // survives B's save.
    sim::SimCache b(8);
    b.insert(key(1), resultWithStepTime(2.0));
    saveSimCacheFileMerged(b, path);

    sim::SimCache check(8);
    ASSERT_TRUE(sim::warmSimCacheFromFile(check, path));
    sim::SimResult out;
    EXPECT_TRUE(check.lookup(key(0), out));
    EXPECT_TRUE(check.lookup(key(1), out));
    std::remove(path.c_str());
}

TEST(SimCache, ClearDropsEntriesKeepsCounters)
{
    sim::SimCache cache(8);
    sim::SimCacheKey key =
        sim::makeSimCacheKey({1}, 0, configFor(hw::ChipModel::TpuV4));
    cache.insert(key, resultWithStepTime(1.0));
    sim::SimResult out;
    ASSERT_TRUE(cache.lookup(key, out));
    cache.clear();
    EXPECT_FALSE(cache.lookup(key, out));
    sim::SimCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}
