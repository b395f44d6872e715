#ifndef MTIA_AUTOTUNE_PERF_DATABASE_H_
#define MTIA_AUTOTUNE_PERF_DATABASE_H_

/**
 * @file
 * The FC-kernel performance database of Section 4.1: tuned shapes are
 * stored in a KD-tree over log-shape space and new shapes pick the
 * variant of their approximate nearest neighbour, cutting tuning time
 * by up to 1000x while staying within 5% of exhaustive tuning.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chip/kernel_cost_model.h"

namespace mtia {

/** A point in tuning space (log2 of M, N, K). */
using ShapeKey = std::array<double, 3>;

/** Build the key for an FC shape. */
ShapeKey shapeKey(const FcShape &shape);

/**
 * Exact 3-D KD-tree with nearest-neighbour and k-nearest-neighbour
 * search. Small and deterministic; used both by the tuner and as a
 * brute-force-checked property-test subject.
 *
 * Tie-breaking contract (what makes query results invariant to the
 * insertion order of duplicate points): the build comparator orders
 * equal coordinates by index, so the tree shape is a pure function of
 * the point sequence; traversal visits every point whose distance
 * ties the current best (the prune test is <=, and an equal-distance
 * point in the far subtree implies delta^2 <= best_d2), and both
 * searches prefer the lowest index among equal distances. A query
 * over any permutation of the same multiset of points therefore
 * returns the same coordinates, and over the same sequence the same
 * indices.
 */
class KdTree
{
  public:
    /** Build from points; indices into the original vector are kept. */
    explicit KdTree(std::vector<ShapeKey> points);

    /** Index of the nearest point to @p q (brute-force-equal). */
    std::size_t nearest(const ShapeKey &q) const;

    /**
     * Indices of the (up to) @p k nearest points to @p q, ordered by
     * (distance, index) ascending — brute-force-equal under the same
     * ordering. Used for surrogate warm-starts.
     */
    std::vector<std::size_t> nearestK(const ShapeKey &q,
                                      std::size_t k) const;

    std::size_t size() const { return points_.size(); }

    /** Squared Euclidean distance between keys. */
    static double dist2(const ShapeKey &a, const ShapeKey &b);

  private:
    struct KdNode
    {
        std::size_t point = 0;
        int axis = 0;
        int left = -1;
        int right = -1;
    };

    int build(std::vector<std::size_t> &idx, std::size_t lo,
              std::size_t hi, int depth);
    void search(int node, const ShapeKey &q, std::size_t &best,
                double &best_d2) const;
    void searchK(int node, const ShapeKey &q, std::size_t k,
                 std::vector<std::pair<double, std::size_t>> &best) const;

    std::vector<ShapeKey> points_;
    std::vector<KdNode> nodes_;
    int root_ = -1;
};

/** One tuned entry: the best variant found for a shape. */
struct PerfEntry
{
    FcShape shape;
    FcOptions best_variant;
    Tick best_time = 0;
};

/**
 * The tuned-kernel database of modeled FC variants with ANN lookup:
 * entries keyed by shapeKey() in a KdTree rebuilt lazily after
 * inserts.
 */
class PerfDatabase
{
  public:
    void insert(PerfEntry entry);

    /** Nearest neighbour of @p shape (nullopt when empty). */
    std::optional<PerfEntry> lookup(const FcShape &shape) const;

    /**
     * The (up to) @p k nearest entries, closest first with
     * deterministic (distance, insertion-order) tie-breaking; empty
     * when the database is. Surrogate warm-start path.
     */
    std::vector<PerfEntry> lookupK(const FcShape &shape,
                                   std::size_t k) const;

    std::size_t size() const { return entries_.size(); }

  private:
    void rebuild() const;

    std::vector<PerfEntry> entries_;
    mutable std::unique_ptr<KdTree> tree_;
    mutable bool dirty_ = false;
};

} // namespace mtia

#endif // MTIA_AUTOTUNE_PERF_DATABASE_H_
