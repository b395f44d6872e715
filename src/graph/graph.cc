#include "graph/graph.h"

#include "core/check.h"

namespace mtia {

int
Graph::add(OpPtr op, std::vector<int> inputs, std::string label)
{
    MTIA_CHECK(op != nullptr) << ": Graph::add null op";
    const int id = static_cast<int>(nodes_.size());
    for (int in : inputs) {
        MTIA_CHECK_GE(in, 0) << ": Graph::add negative input id";
        MTIA_CHECK_LT(in, id)
            << ": Graph::add input must precede node " << id;
    }
    MTIA_CHECK_EQ(inputs.size(), op->arity())
        << ": Graph::add op " << op->kind() << " arity mismatch";
    nodes_.push_back(Node{id, std::move(op), std::move(inputs),
                          std::move(label), false});
    shape_cache_.emplace_back();
    shape_valid_.push_back(false);
    return id;
}

const Node &
Graph::node(int id) const
{
    MTIA_CHECK_GE(id, 0) << ": Graph::node negative id";
    MTIA_CHECK_LT(id, static_cast<int>(nodes_.size()))
        << ": Graph::node id out of range";
    return nodes_[static_cast<std::size_t>(id)];
}

Node &
Graph::node(int id)
{
    return const_cast<Node &>(
        static_cast<const Graph *>(this)->node(id));
}

std::size_t
Graph::liveSize() const
{
    std::size_t n = 0;
    for (const auto &nd : nodes_)
        n += !nd.dead;
    return n;
}

std::vector<int>
Graph::topoOrder() const
{
    std::vector<int> order;
    order.reserve(nodes_.size());
    for (const auto &nd : nodes_) {
        if (!nd.dead)
            order.push_back(nd.id);
    }
    return order;
}

std::vector<int>
Graph::consumers(int id) const
{
    std::vector<int> out;
    for (const auto &nd : nodes_) {
        if (nd.dead)
            continue;
        for (int in : nd.inputs) {
            if (in == id) {
                out.push_back(nd.id);
                break;
            }
        }
    }
    return out;
}

std::vector<int>
Graph::outputs() const
{
    std::vector<int> out;
    for (const auto &nd : nodes_) {
        if (!nd.dead && consumers(nd.id).empty())
            out.push_back(nd.id);
    }
    return out;
}

Shape
Graph::shapeOf(int id) const
{
    const Node &nd = node(id);
    if (shape_valid_[static_cast<std::size_t>(id)])
        return shape_cache_[static_cast<std::size_t>(id)];
    std::vector<Shape> in_shapes;
    in_shapes.reserve(nd.inputs.size());
    for (int in : nd.inputs)
        in_shapes.push_back(shapeOf(in));
    const Shape s = nd.op->outputShape(in_shapes);
    shape_cache_[static_cast<std::size_t>(id)] = s;
    shape_valid_[static_cast<std::size_t>(id)] = true;
    return s;
}

void
Graph::validate() const
{
    for (const auto &nd : nodes_) {
        if (nd.dead)
            continue;
        MTIA_CHECK_EQ(nd.inputs.size(), nd.op->arity())
            << ": Graph::validate node " << nd.id << " ("
            << nd.op->kind() << ") arity mismatch";
        for (int in : nd.inputs) {
            MTIA_CHECK(!node(in).dead)
                << ": Graph::validate node " << nd.id
                << " reads dead node " << in;
        }
        shapeOf(nd.id); // panics on incompatible shapes
    }
}

void
Graph::replaceOp(int id, OpPtr op)
{
    node(id).op = std::move(op);
    // Shapes downstream may change; drop the whole cache.
    std::fill(shape_valid_.begin(), shape_valid_.end(), false);
}

void
Graph::rewireInput(int node_id, std::size_t slot, int new_src)
{
    Node &nd = node(node_id);
    MTIA_CHECK_LT(slot, nd.inputs.size())
        << ": Graph::rewireInput slot out of range";
    nd.inputs[slot] = new_src;
    std::fill(shape_valid_.begin(), shape_valid_.end(), false);
}

void
Graph::markDead(int id)
{
    node(id).dead = true;
}

void
Graph::redirectConsumers(int from, int to)
{
    for (auto &nd : nodes_) {
        if (nd.dead)
            continue;
        for (auto &in : nd.inputs) {
            if (in == from)
                in = to;
        }
    }
    std::fill(shape_valid_.begin(), shape_valid_.end(), false);
}

Bytes
Graph::totalWeightBytes() const
{
    Bytes total = 0;
    for (const auto &nd : nodes_) {
        if (!nd.dead)
            total += nd.op->weightBytes();
    }
    return total;
}

double
Graph::totalFlops() const
{
    double total = 0.0;
    for (const auto &nd : nodes_) {
        if (!nd.dead)
            total += nd.op->flops();
    }
    return total;
}

} // namespace mtia
