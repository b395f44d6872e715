// Positive fixture: pointer-key-ordered — std::map/std::set keyed
// by raw pointer with the default std::less, whose order is the
// allocation order of the heap and differs run to run. Never
// compiled.

#include <map>
#include <set>

struct Node;

int
violations(Node *a, const Node *b)
{
    std::map<Node *, int> order;
    std::set<const Node *> seen;
    order[a] = 1;
    seen.insert(b);
    return order.size() + seen.size();
}
