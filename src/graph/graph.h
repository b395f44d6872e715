#ifndef MTIA_GRAPH_GRAPH_H_
#define MTIA_GRAPH_GRAPH_H_

/**
 * @file
 * Model graph IR: a DAG of operators. Nodes are appended in
 * topological order (an input must already exist), fusion passes
 * mutate in place (replace ops, rewire edges, kill dead nodes), and
 * shape inference validates the wiring.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ops/op.h"

namespace mtia {

/** One graph node. */
struct Node
{
    int id = -1;
    OpPtr op;
    std::vector<int> inputs;
    std::string label;
    bool dead = false;
};

/** The model DAG. */
class Graph
{
  public:
    /** Append a node; all inputs must already exist. Returns its id. */
    int add(OpPtr op, std::vector<int> inputs = {},
            std::string label = "");

    const Node &node(int id) const;
    Node &node(int id);
    std::size_t size() const { return nodes_.size(); }

    /** Live (non-dead) node count. */
    std::size_t liveSize() const;

    /** Topological order over live nodes (insertion order is one). */
    std::vector<int> topoOrder() const;

    /** Live consumers of @p id. */
    std::vector<int> consumers(int id) const;

    /** Output nodes: live nodes with no live consumers. */
    std::vector<int> outputs() const;

    /** Inferred output shape of a node (cached). */
    Shape shapeOf(int id) const;

    /** Validate arity and shape compatibility of every live node. */
    void validate() const;

    // Mutation (for fusion passes).
    void replaceOp(int id, OpPtr op);
    void rewireInput(int node_id, std::size_t slot, int new_src);
    void markDead(int id);

    /** Redirect every consumer of @p from to read @p to instead. */
    void redirectConsumers(int from, int to);

    // Aggregates.
    Bytes totalWeightBytes() const;
    double totalFlops() const;

  private:
    std::vector<Node> nodes_;
    mutable std::vector<Shape> shape_cache_;
    mutable std::vector<bool> shape_valid_;
};

} // namespace mtia

#endif // MTIA_GRAPH_GRAPH_H_
