#include "common/node_set.hpp"

#include <bit>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace scup {

namespace {
constexpr std::size_t kBits = 64;

std::size_t word_count(std::size_t universe) {
  return (universe + kBits - 1) / kBits;
}
}  // namespace

NodeSet::NodeSet(std::size_t universe)
    : universe_(universe), words_(word_count(universe), 0) {}

NodeSet::NodeSet(std::size_t universe, std::initializer_list<ProcessId> members)
    : NodeSet(universe) {
  for (ProcessId m : members) add(m);
}

NodeSet::NodeSet(std::size_t universe, const std::vector<ProcessId>& members)
    : NodeSet(universe) {
  for (ProcessId m : members) add(m);
}

NodeSet NodeSet::full(std::size_t universe) {
  NodeSet s(universe);
  for (std::size_t w = 0; w < s.words_.size(); ++w) s.words_[w] = ~0ULL;
  // Clear the bits beyond the universe in the last word.
  const std::size_t used = universe % kBits;
  if (used != 0 && !s.words_.empty()) {
    s.words_.back() &= (1ULL << used) - 1;
  }
  return s;
}

bool NodeSet::empty() const {
  for (std::uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t NodeSet::count() const {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool NodeSet::contains(ProcessId id) const {
  if (id >= universe_) return false;
  return (words_[id / kBits] >> (id % kBits)) & 1ULL;
}

void NodeSet::add(ProcessId id) {
  if (id >= universe_) {
    throw std::out_of_range("NodeSet::add: id " + std::to_string(id) +
                            " outside universe of size " +
                            std::to_string(universe_));
  }
  words_[id / kBits] |= 1ULL << (id % kBits);
}

void NodeSet::remove(ProcessId id) {
  if (id >= universe_) return;
  words_[id / kBits] &= ~(1ULL << (id % kBits));
}

void NodeSet::clear() {
  for (auto& w : words_) w = 0;
}

void NodeSet::check_same_universe(const NodeSet& other) const {
  if (universe_ != other.universe_) {
    throw std::invalid_argument(
        "NodeSet operation on mismatched universes: " +
        std::to_string(universe_) + " vs " + std::to_string(other.universe_));
  }
}

NodeSet& NodeSet::operator|=(const NodeSet& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

NodeSet& NodeSet::operator&=(const NodeSet& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

NodeSet& NodeSet::operator-=(const NodeSet& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

NodeSet NodeSet::complement() const {
  NodeSet result = NodeSet::full(universe_);
  result -= *this;
  return result;
}

bool NodeSet::subset_of(const NodeSet& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool NodeSet::subset_of(const NodeSet& other, ProcessId except) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t extra = words_[i] & ~other.words_[i];
    if (i == except / kBits) extra &= ~(1ULL << (except % kBits));
    if (extra != 0) return false;
  }
  return true;
}

bool NodeSet::intersects(const NodeSet& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t NodeSet::intersection_count(const NodeSet& other) const {
  check_same_universe(other);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    c += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return c;
}

bool NodeSet::operator==(const NodeSet& other) const {
  return universe_ == other.universe_ && words_ == other.words_;
}

std::strong_ordering NodeSet::operator<=>(const NodeSet& other) const {
  if (auto c = universe_ <=> other.universe_; c != 0) return c;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (auto c = words_[i] <=> other.words_[i]; c != 0) return c;
  }
  return std::strong_ordering::equal;
}

std::vector<ProcessId> NodeSet::to_vector() const {
  std::vector<ProcessId> v;
  v.reserve(count());
  for (ProcessId p : *this) v.push_back(p);
  return v;
}

ProcessId NodeSet::min_member() const {
  ProcessId first = next_member(0);
  return first == universe_ ? kInvalidProcess : first;
}

ProcessId NodeSet::next_member(ProcessId from) const {
  if (from >= universe_) return static_cast<ProcessId>(universe_);
  std::size_t word = from / kBits;
  std::uint64_t current = words_[word] & (~0ULL << (from % kBits));
  while (true) {
    if (current != 0) {
      const ProcessId id = static_cast<ProcessId>(
          word * kBits + static_cast<std::size_t>(std::countr_zero(current)));
      return id < universe_ ? id : static_cast<ProcessId>(universe_);
    }
    ++word;
    if (word >= words_.size()) return static_cast<ProcessId>(universe_);
    current = words_[word];
  }
}

std::size_t NodeSet::hash() const {
  // FNV-1a over the words plus the universe size.
  std::size_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(universe_);
  for (std::uint64_t w : words_) mix(w);
  return h;
}

std::string NodeSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const NodeSet& set) {
  os << '{';
  bool first = true;
  for (ProcessId p : set) {
    if (!first) os << ", ";
    first = false;
    os << p;
  }
  os << '}';
  return os;
}

}  // namespace scup
