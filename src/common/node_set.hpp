// NodeSet: a dynamic bitset over process ids with full set algebra.
//
// This is the workhorse representation for quorums, slices, sink components
// and failure sets. All set operations are O(universe/64) and the type is
// cheap to copy for the universe sizes used in simulation (tens to a few
// thousand processes).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace scup {

class NodeSet {
 public:
  NodeSet() = default;

  /// Creates an empty set over a universe of `universe` process ids.
  explicit NodeSet(std::size_t universe);

  /// Creates a set over `universe` containing exactly `members`.
  NodeSet(std::size_t universe, std::initializer_list<ProcessId> members);
  NodeSet(std::size_t universe, const std::vector<ProcessId>& members);

  /// The full set {0, ..., universe-1}.
  static NodeSet full(std::size_t universe);

  std::size_t universe_size() const { return universe_; }
  bool empty() const;
  std::size_t count() const;

  bool contains(ProcessId id) const;
  void add(ProcessId id);
  void remove(ProcessId id);
  void clear();

  /// Set algebra. Operands must share the same universe size.
  NodeSet& operator|=(const NodeSet& other);
  NodeSet& operator&=(const NodeSet& other);
  NodeSet& operator-=(const NodeSet& other);
  friend NodeSet operator|(NodeSet a, const NodeSet& b) { return a |= b; }
  friend NodeSet operator&(NodeSet a, const NodeSet& b) { return a &= b; }
  friend NodeSet operator-(NodeSet a, const NodeSet& b) { return a -= b; }

  /// Complement within the universe.
  NodeSet complement() const;

  bool subset_of(const NodeSet& other) const;
  /// this \ {except} ⊆ other, without materializing the difference.
  bool subset_of(const NodeSet& other, ProcessId except) const;
  bool superset_of(const NodeSet& other) const { return other.subset_of(*this); }
  bool intersects(const NodeSet& other) const;
  std::size_t intersection_count(const NodeSet& other) const;

  bool operator==(const NodeSet& other) const;
  /// Lexicographic order on the bit pattern; useful for canonical sorting.
  std::strong_ordering operator<=>(const NodeSet& other) const;

  std::vector<ProcessId> to_vector() const;
  std::string to_string() const;

  /// Smallest member, or kInvalidProcess when empty.
  ProcessId min_member() const;

  std::size_t hash() const;

  /// Iteration over members in increasing id order.
  class const_iterator {
   public:
    using value_type = ProcessId;
    using difference_type = std::ptrdiff_t;

    const_iterator(const NodeSet* set, ProcessId pos) : set_(set), pos_(pos) {}
    ProcessId operator*() const { return pos_; }
    const_iterator& operator++() {
      pos_ = set_->next_member(pos_ + 1);
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }

   private:
    const NodeSet* set_;
    ProcessId pos_;
  };

  const_iterator begin() const { return {this, next_member(0)}; }
  const_iterator end() const {
    return {this, static_cast<ProcessId>(universe_)};
  }

 private:
  /// First member with id >= from, or universe_ if none.
  ProcessId next_member(ProcessId from) const;
  void check_same_universe(const NodeSet& other) const;

  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

std::ostream& operator<<(std::ostream& os, const NodeSet& set);

}  // namespace scup

template <>
struct std::hash<scup::NodeSet> {
  std::size_t operator()(const scup::NodeSet& s) const { return s.hash(); }
};
