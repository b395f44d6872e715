// Positive fixture: unordered-iteration — iterating an unordered
// container, whose visit order depends on hashing and load factor
// and therefore varies across libc++/libstdc++ and across runs with
// pointer-derived keys. The rule needs a token view of the loop
// header. Never compiled.

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

double
violations(const std::unordered_map<int, double> &weights,
           std::unordered_set<std::uint64_t> &seen)
{
    double sum = 0.0;
    for (const auto &kv : weights) // range-for over unordered_map
        sum += kv.second;
    for (auto it = seen.begin(); it != seen.end(); ++it) // .begin()
        sum += 1.0;
    return sum;
}
