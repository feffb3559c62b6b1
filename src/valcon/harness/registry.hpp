// The string-keyed factory registry behind the adversary strategies
// (StrategyRegistry, strategy.hpp) and the proposal patterns
// (PatternRegistry, pattern.hpp). Registry<T> makes a fresh T per lookup,
// so entries stay stateless across sweep cells. T names its entries in
// messages through `T::kNoun` ("adversary strategy", "proposal pattern").
//
// Each instantiation's global() instance starts with its built-ins
// registered; it is specialized next to its T (strategy.cpp, pattern.cpp).
// Libraries and tests add their own with add(). Lookups are thread-safe
// (sweep workers resolve names concurrently).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace valcon::harness {

template <typename T>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;

  Registry() = default;  // empty registry (for tests)

  /// The process-wide registry, with the built-ins pre-registered.
  [[nodiscard]] static Registry& global();

  /// Registers a factory. Throws std::invalid_argument for an empty name,
  /// a null factory, or a name that is already taken.
  void add(const std::string& name, Factory factory) {
    if (name.empty()) {
      throw std::invalid_argument(std::string("empty ") + T::kNoun + " name");
    }
    if (!factory) {
      throw std::invalid_argument(std::string("null factory for ") +
                                  T::kNoun + " '" + name + "'");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!factories_.emplace(name, std::move(factory)).second) {
      throw std::invalid_argument(std::string(T::kNoun) + " '" + name +
                                  "' is already registered");
    }
  }

  /// Registers U's default constructor under `name` (the built-ins).
  template <typename U>
  void add(const std::string& name) {
    add(name, [] { return std::make_unique<U>(); });
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
  }

  /// Instantiates the entry registered under `name`. Throws
  /// std::invalid_argument for unknown names, listing what is registered.
  [[nodiscard]] std::unique_ptr<T> make(const std::string& name) const {
    Factory factory;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) {
      std::string known;
      for (const std::string& n : names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument(std::string("unknown ") + T::kNoun + " '" +
                                  name + "' (registered: " + known + ")");
    }
    return factory();
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;  // std::map iteration is already sorted
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace valcon::harness
