/**
 * @file
 * Capture memoization: a thread-safe, content-keyed LRU cache over
 * Pipeline::captureRun results.
 *
 * A capture is a pure function of (program, core config, energy
 * params, channel and feature config, injection plan, seed) — the
 * cycle simulator, EM synthesis, and STFT are all deterministic given
 * those inputs. Training loops and the bench sweeps replay identical
 * baseline captures at every sweep point; memoizing the extracted STS
 * stream turns those ~50 ms re-simulations into a map lookup plus a
 * vector copy, without changing a single output bit (the determinism
 * regression in tests/core/capture_cache_test.cpp holds trained
 * models byte-identical with the cache on or off at any thread
 * count).
 *
 * Keys are the full serialized capture identity (see
 * captureCacheKey() in pipeline.h), so two captures collide only if
 * every input is identical — there is no hash-collision exposure.
 * The cache lives in memory only; an evicted entry is recomputed on
 * its next lookup.
 */

#ifndef EDDIE_CORE_CAPTURE_CACHE_H
#define EDDIE_CORE_CAPTURE_CACHE_H

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics.h"
#include "sts.h"

namespace eddie::core
{

/**
 * Thread-safe content-keyed LRU cache of extracted STS streams.
 *
 * Lookups and insertions take a mutex; the compute callback of
 * getOrComputeShared() runs outside it, so concurrent captures of
 * *different* keys proceed in parallel, and concurrent captures of
 * the *same* key each compute once and agree (last insert is a
 * no-op because the values are identical).
 */
class CaptureCache
{
  public:
    /** Most entries held; at default pipeline scale one entry is a
     *  few hundred STSs (tens of KB). */
    static constexpr std::size_t kCapacity = 256;

    /**
     * Returns the stream cached under @p key, computing and caching
     * it via @p compute on a miss. The entry itself is returned (no
     * copy, never null, immutable): a hit costs a map lookup plus a
     * refcount bump — the mutex is released before any Sts data is
     * touched — so sharded monitor workers hitting the same warm key
     * do not serialize on copying streams under the lock.
     */
    std::shared_ptr<const std::vector<Sts>>
    getOrComputeShared(const std::string &key,
                       const std::function<std::vector<Sts>()> &compute);

    /** Snapshot of the hit/miss counters (see core/metrics.h). */
    CaptureCacheStats stats() const;

  private:
    using Entry =
        std::pair<std::string, std::shared_ptr<const std::vector<Sts>>>;

    mutable std::mutex mu_;
    /** MRU-first recency list; map values point into it. */
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    CaptureCacheStats stats_;
};

} // namespace eddie::core

#endif // EDDIE_CORE_CAPTURE_CACHE_H
