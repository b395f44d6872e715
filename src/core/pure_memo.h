#ifndef MTIA_CORE_PURE_MEMO_H_
#define MTIA_CORE_PURE_MEMO_H_

/**
 * @file
 * PureMemo: a lane-safe, process-wide memo for a pure function of an
 * ordered key. A lookup takes the mutex; a miss computes outside it,
 * so lanes never wait on each other's computation; the first insert
 * wins, and since the function is pure every lane returns the same
 * value. A computation that fails (an MTIA_CHECK under a throwing
 * handler) inserts nothing. Entries are never evicted.
 *
 * Hold one as a function-local static beside the function it
 * memoizes. A cached value is what a fresh call returns, bit for bit,
 * so a memo never changes a result.
 */

#include <map>
#include <mutex>
#include <utility>

namespace mtia {

template <class Key, class Value>
class PureMemo
{
  public:
    /** The value for @p key, from @p compute() on the first call. */
    template <class Compute>
    Value
    get(const Key &key, Compute &&compute)
    {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            const auto it = values_.find(key);
            if (it != values_.end())
                return it->second;
        }
        Value v = compute();
        const std::lock_guard<std::mutex> lock(mu_);
        return values_.emplace(key, std::move(v)).first->second;
    }

  private:
    std::mutex mu_;
    std::map<Key, Value> values_;
};

} // namespace mtia

#endif // MTIA_CORE_PURE_MEMO_H_
