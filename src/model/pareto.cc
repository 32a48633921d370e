#include "model/pareto.hh"

#include <algorithm>
#include <map>
#include <numeric>

namespace flcnn {

namespace {

/** Coordinates pulled out of DesignPoint so the sort touches compact
 *  24-byte keys instead of chasing partition-carrying structs. */
struct ParetoKey
{
    int64_t storage;
    int64_t transfer;
    size_t index;

    friend bool
    operator<(const ParetoKey &a, const ParetoKey &b)
    {
        if (a.storage != b.storage)
            return a.storage < b.storage;
        if (a.transfer != b.transfer)
            return a.transfer < b.transfer;
        return a.index < b.index;
    }
};

/**
 * Drop keys that a strictly-lower-storage key already dominates, in
 * O(n): bucket by storage (shift-based, no division), take each
 * bucket's minimum transfer, then a prefix-min over lower buckets
 * tells every key whether some cheaper-storage point matches or beats
 * its transfer. Removed keys could never survive the sorted scan —
 * their dominator precedes them and already lowered the running
 * minimum — so the front is unchanged; only the sort gets smaller.
 */
void
dropBucketDominated(std::vector<ParetoKey> &keys)
{
    constexpr int kBuckets = 256;
    int64_t mn = INT64_MAX, mx = INT64_MIN;
    for (const ParetoKey &k : keys) {
        mn = std::min(mn, k.storage);
        mx = std::max(mx, k.storage);
    }
    const int64_t range = mx - mn;
    if (range <= 0)
        return;  // all equal storage: nothing strictly lower exists
    int shift = 0;
    while ((range >> shift) >= kBuckets)
        shift++;

    int64_t bucket_min[kBuckets];
    std::fill(bucket_min, bucket_min + kBuckets, INT64_MAX);
    for (const ParetoKey &k : keys) {
        const int b = static_cast<int>((k.storage - mn) >> shift);
        bucket_min[b] = std::min(bucket_min[b], k.transfer);
    }
    int64_t below[kBuckets];  // min transfer over strictly lower buckets
    int64_t running = INT64_MAX;
    for (int b = 0; b < kBuckets; b++) {
        below[b] = running;
        running = std::min(running, bucket_min[b]);
    }

    size_t kept = 0;
    for (const ParetoKey &k : keys) {
        const int b = static_cast<int>((k.storage - mn) >> shift);
        if (k.transfer < below[b])
            keys[kept++] = k;
    }
    keys.resize(kept);
}

/** Sort key for the three-objective front. */
struct ParetoKey3
{
    int64_t x;
    int64_t y;
    int64_t z;
    size_t index;

    friend bool
    operator<(const ParetoKey3 &a, const ParetoKey3 &b)
    {
        if (a.x != b.x)
            return a.x < b.x;
        if (a.y != b.y)
            return a.y < b.y;
        if (a.z != b.z)
            return a.z < b.z;
        return a.index < b.index;
    }
};

/**
 * Bucketed prefilter for the 3-objective front. The 2-objective filter
 * compares each key's transfer against the prefix-min over strictly
 * lower storage buckets; that is sound there because the minimum is an
 * actual point. With three objectives the per-axis minima of a bucket
 * may belong to *different* points, and a pointwise-minimum phantom
 * would wrongly drop keys that tie on (x, y) but win on z. So each
 * bucket keeps two real representatives (min-y and min-z, both with
 * the other axis as tie-break), and a key is dropped only when a
 * representative from a strictly lower x-bucket weakly dominates its
 * (y, z) — the bucket gap makes x strictly smaller, so the drop is a
 * genuine strict dominance, ties included.
 */
void
dropBucketDominated3(std::vector<ParetoKey3> &keys)
{
    constexpr int kBuckets = 256;
    int64_t mn = INT64_MAX, mx = INT64_MIN;
    for (const ParetoKey3 &k : keys) {
        mn = std::min(mn, k.x);
        mx = std::max(mx, k.x);
    }
    const int64_t range = mx - mn;
    if (range <= 0)
        return;  // all equal x: no strictly-lower bucket exists
    int shift = 0;
    while ((range >> shift) >= kBuckets)
        shift++;

    struct Rep
    {
        int64_t y = INT64_MAX;
        int64_t z = INT64_MAX;
    };
    Rep min_y[kBuckets];  // the bucket's actual min-y point's (y, z)
    Rep min_z[kBuckets];  // the bucket's actual min-z point's (y, z)
    for (const ParetoKey3 &k : keys) {
        const int b = static_cast<int>((k.x - mn) >> shift);
        if (k.y < min_y[b].y || (k.y == min_y[b].y && k.z < min_y[b].z)) {
            min_y[b].y = k.y;
            min_y[b].z = k.z;
        }
        if (k.z < min_z[b].z || (k.z == min_z[b].z && k.y < min_z[b].y)) {
            min_z[b].y = k.y;
            min_z[b].z = k.z;
        }
    }
    // Prefix "best representatives over strictly lower buckets": keep
    // the running min-y point and the running min-z point (real points
    // both; either may witness dominance).
    Rep below_y[kBuckets], below_z[kBuckets];
    Rep run_y, run_z;
    for (int b = 0; b < kBuckets; b++) {
        below_y[b] = run_y;
        below_z[b] = run_z;
        if (min_y[b].y < run_y.y ||
            (min_y[b].y == run_y.y && min_y[b].z < run_y.z))
            run_y = min_y[b];
        if (min_z[b].z < run_z.z ||
            (min_z[b].z == run_z.z && min_z[b].y < run_z.y))
            run_z = min_z[b];
    }

    size_t kept = 0;
    for (const ParetoKey3 &k : keys) {
        const int b = static_cast<int>((k.x - mn) >> shift);
        const bool dom =
            (below_y[b].y <= k.y && below_y[b].z <= k.z) ||
            (below_z[b].y <= k.y && below_z[b].z <= k.z);
        if (!dom)
            keys[kept++] = k;
    }
    keys.resize(kept);
}

} // namespace

std::vector<size_t>
paretoFrontIndices(const std::vector<DesignPoint> &points)
{
    // The index tie-break pins which representative survives among
    // equal-coordinate points (the by-value overload's unstable sort
    // left it unspecified): the earliest in enumeration order.
    std::vector<ParetoKey> order;
    order.reserve(points.size());
    for (size_t i = 0; i < points.size(); i++)
        order.push_back(
            ParetoKey{points[i].storageBytes, points[i].transferBytes, i});
    if (order.size() >= 1024)
        dropBucketDominated(order);
    std::sort(order.begin(), order.end());

    std::vector<size_t> front;
    int64_t best_transfer = INT64_MAX;
    for (const ParetoKey &k : order) {
        if (k.transfer < best_transfer) {
            best_transfer = k.transfer;
            front.push_back(k.index);
        }
    }
    return front;
}

std::vector<size_t>
paretoFrontIndices3(const std::vector<ParetoPoint3> &points)
{
    std::vector<ParetoKey3> order;
    order.reserve(points.size());
    for (size_t i = 0; i < points.size(); i++)
        order.push_back(
            ParetoKey3{points[i].x, points[i].y, points[i].z, i});
    if (order.size() >= 1024)
        dropBucketDominated3(order);
    std::sort(order.begin(), order.end());

    // Sorted scan: every accepted key precedes the candidate, so its x
    // is <= the candidate's. A candidate is dominated iff some accepted
    // key has y <= and z <= (equality everywhere means an exact
    // duplicate, whose lowest-index representative was accepted first).
    // The accepted set is queried through its (y, z) staircase: a map
    // from y to the minimum z among accepted keys with that y or less,
    // kept strictly decreasing in z as y grows, so the dominance test
    // is one ordered lookup instead of a scan.
    std::vector<size_t> front;
    std::map<int64_t, int64_t> stair;  // y -> min z over accepted y' <= y
    for (const ParetoKey3 &k : order) {
        auto it = stair.upper_bound(k.y);
        if (it != stair.begin()) {
            --it;
            if (it->second <= k.z)
                continue;  // dominated (or duplicate of) an accepted key
        }
        front.push_back(k.index);
        // Insert (y, z) and restore the staircase invariant: drop every
        // entry at y >= k.y whose z is not strictly better than k.z.
        auto at = stair.lower_bound(k.y);
        while (at != stair.end() && at->second >= k.z)
            at = stair.erase(at);
        stair.emplace(k.y, k.z);
    }
    return front;
}

std::vector<DesignPoint>
paretoFront(std::vector<DesignPoint> points)
{
    std::vector<size_t> idx = paretoFrontIndices(points);
    std::vector<DesignPoint> front;
    front.reserve(idx.size());
    for (size_t i : idx)
        front.push_back(std::move(points[i]));
    return front;
}

const DesignPoint *
bestUnderStorage(const std::vector<DesignPoint> &front,
                 int64_t max_storage_bytes)
{
    const DesignPoint *best = nullptr;
    for (const DesignPoint &p : front) {
        if (p.storageBytes <= max_storage_bytes)
            best = &p;  // ascending storage: later fits transfer less
    }
    return best;
}

} // namespace flcnn
