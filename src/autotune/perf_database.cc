#include "autotune/perf_database.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace mtia {

ShapeKey
shapeKey(const FcShape &shape)
{
    return {std::log2(static_cast<double>(std::max<std::int64_t>(
                1, shape.m))),
            std::log2(static_cast<double>(std::max<std::int64_t>(
                1, shape.n))),
            std::log2(static_cast<double>(std::max<std::int64_t>(
                1, shape.k)))};
}

double
KdTree::dist2(const ShapeKey &a, const ShapeKey &b)
{
    double acc = 0.0;
    for (int i = 0; i < 3; ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

KdTree::KdTree(std::vector<ShapeKey> points) : points_(std::move(points))
{
    MTIA_CHECK(!points_.empty()) << ": KdTree over an empty point set";
    std::vector<std::size_t> idx(points_.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    nodes_.reserve(points_.size());
    root_ = build(idx, 0, idx.size(), 0);
}

int
KdTree::build(std::vector<std::size_t> &idx, std::size_t lo,
              std::size_t hi, int depth)
{
    if (lo >= hi)
        return -1;
    const int axis = depth % 3;
    const std::size_t mid = (lo + hi) / 2;
    // Index tie-break on equal coordinates: nth_element's partition
    // of equal keys is otherwise unspecified, and the tree shape
    // must be a pure function of the point sequence.
    std::nth_element(idx.begin() + lo, idx.begin() + mid,
                     idx.begin() + hi,
                     [&](std::size_t a, std::size_t b) {
                         if (points_[a][axis] != points_[b][axis])
                             return points_[a][axis] < points_[b][axis];
                         return a < b;
                     });
    const int node = static_cast<int>(nodes_.size());
    nodes_.push_back(KdNode{idx[mid], axis, -1, -1});
    nodes_[node].left = build(idx, lo, mid, depth + 1);
    nodes_[node].right = build(idx, mid + 1, hi, depth + 1);
    return node;
}

void
KdTree::search(int node, const ShapeKey &q, std::size_t &best,
               double &best_d2) const
{
    if (node < 0)
        return;
    const KdNode &n = nodes_[static_cast<std::size_t>(node)];
    const double d2 = dist2(points_[n.point], q);
    if (d2 < best_d2 || (d2 == best_d2 && n.point < best)) {
        best_d2 = d2;
        best = n.point;
    }
    const double delta = q[n.axis] - points_[n.point][n.axis];
    const int near = delta < 0.0 ? n.left : n.right;
    const int far = delta < 0.0 ? n.right : n.left;
    search(near, q, best, best_d2);
    if (delta * delta <= best_d2)
        search(far, q, best, best_d2);
}

std::size_t
KdTree::nearest(const ShapeKey &q) const
{
    std::size_t best = nodes_[static_cast<std::size_t>(root_)].point;
    double best_d2 = dist2(points_[best], q);
    search(root_, q, best, best_d2);
    return best;
}

void
KdTree::searchK(int node, const ShapeKey &q, std::size_t k,
                std::vector<std::pair<double, std::size_t>> &best) const
{
    if (node < 0)
        return;
    const KdNode &n = nodes_[static_cast<std::size_t>(node)];
    const std::pair<double, std::size_t> cand{dist2(points_[n.point], q),
                                              n.point};
    // `best` stays sorted by (distance, index): insert in place, drop
    // the worst once over capacity. The lexicographic comparison is
    // the deterministic tie-break.
    const auto pos = std::lower_bound(best.begin(), best.end(), cand);
    if (pos != best.end() || best.size() < k) {
        best.insert(pos, cand);
        if (best.size() > k)
            best.pop_back();
    }
    const double delta = q[n.axis] - points_[n.point][n.axis];
    const int near = delta < 0.0 ? n.left : n.right;
    const int far = delta < 0.0 ? n.right : n.left;
    searchK(near, q, k, best);
    // Visit the far side while the candidate set is unfilled, and on
    // exact distance ties (<=) so equal-distance points still compete
    // on index.
    if (best.size() < k || delta * delta <= best.back().first)
        searchK(far, q, k, best);
}

std::vector<std::size_t>
KdTree::nearestK(const ShapeKey &q, std::size_t k) const
{
    std::vector<std::pair<double, std::size_t>> best;
    if (k == 0)
        return {};
    best.reserve(k + 1);
    searchK(root_, q, k, best);
    std::vector<std::size_t> out;
    out.reserve(best.size());
    for (const auto &[d2, idx] : best)
        out.push_back(idx);
    return out;
}

void
PerfDatabase::insert(PerfEntry entry)
{
    entries_.push_back(std::move(entry));
    dirty_ = true;
}

void
PerfDatabase::rebuild() const
{
    std::vector<ShapeKey> keys;
    keys.reserve(entries_.size());
    for (const auto &e : entries_)
        keys.push_back(shapeKey(e.shape));
    tree_ = std::make_unique<KdTree>(std::move(keys));
    dirty_ = false;
}

std::optional<PerfEntry>
PerfDatabase::lookup(const FcShape &shape) const
{
    if (entries_.empty())
        return std::nullopt;
    if (dirty_ || !tree_)
        rebuild();
    return entries_[tree_->nearest(shapeKey(shape))];
}

std::vector<PerfEntry>
PerfDatabase::lookupK(const FcShape &shape, std::size_t k) const
{
    if (entries_.empty() || k == 0)
        return {};
    if (dirty_ || !tree_)
        rebuild();
    std::vector<PerfEntry> out;
    for (std::size_t idx : tree_->nearestK(shapeKey(shape), k))
        out.push_back(entries_[idx]);
    return out;
}

} // namespace mtia
