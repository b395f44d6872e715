// Positive fixture: parallel-capture — parallelFor lambdas mutating
// shared state captured by reference. The worker interleaving is
// nondeterministic, so these races also break replay determinism.
// The rule needs a token view of the lambda. Never compiled.

#include <cstddef>
#include <vector>

namespace mtia
{
template <typename Fn>
void parallelFor(std::size_t n, Fn fn);
}

double
violations(std::size_t n)
{
    double sum = 0.0;
    std::vector<double> trace;
    mtia::parallelFor(n, [&](std::size_t i) {
        sum += static_cast<double>(i); // racy compound assign
        trace.push_back(sum);          // racy container mutation
    });
    long counter = 0;
    mtia::parallelFor(n, [&counter](std::size_t i) {
        if (i % 2 == 0)
            ++counter; // racy increment through explicit ref capture
    });
    return sum + static_cast<double>(counter);
}
