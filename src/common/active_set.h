// Dense sets of ToR ids tuned for the fabric hot path.
//
// TorBitmap is one bit per id: O(1) insert/erase/membership, successor
// queries and ascending iteration via count-trailing-zeros word scans, at
// O(N/64 + members) per full walk. It suits sets mutated far more often
// than they are walked (the relay queues' occupied destinations).
//
// ActiveSet is a TorBitmap plus a compact sorted vector, so iteration
// touches only the live ids in ascending order (the stable view the
// schedulers walk every epoch). Its mutations are O(size) worst case, so
// callers only mutate on empty/non-empty queue flips, not per packet.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

class TorBitmap {
 public:
  /// Ascending walk over the members, one count-trailing-zeros per member
  /// plus one load per bitmap word. The set must not change mid-walk.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TorId;
    using difference_type = std::ptrdiff_t;
    using pointer = const TorId*;
    using reference = TorId;

    const_iterator() = default;
    TorId operator*() const {
      return static_cast<TorId>(
          word_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_)));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear the lowest set bit
      skip_empty_words();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return word_ == o.word_ && bits_ == o.bits_;
    }

   private:
    friend class TorBitmap;
    const_iterator(const std::uint64_t* words, std::size_t num_words,
                   std::size_t word)
        : words_(words), num_words_(num_words), word_(word),
          bits_(word < num_words ? words[word] : 0) {
      skip_empty_words();
    }
    void skip_empty_words() {
      while (bits_ == 0 && word_ < num_words_ && ++word_ < num_words_) {
        bits_ = words_[word_];
      }
    }

    const std::uint64_t* words_{nullptr};
    std::size_t num_words_{0};
    std::size_t word_{0};
    std::uint64_t bits_{0};  // unvisited members of words_[word_]
  };

  TorBitmap() = default;
  explicit TorBitmap(int capacity) { reset(capacity); }

  /// Clears the set and sizes the bitmap for ids in [0, capacity).
  void reset(int capacity) {
    NEG_ASSERT(capacity >= 0, "negative capacity");
    capacity_ = capacity;
    words_.assign((static_cast<std::size_t>(capacity) + 63) / 64, 0);
  }

  /// Adds `id` (growing the bitmap past the capacity if needed); true iff
  /// it was not already a member.
  bool insert(TorId id) {
    grow_to(id);
    std::uint64_t& word = words_[static_cast<std::size_t>(id) / 64];
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(id) % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// Removes `id`; true iff it was a member.
  bool erase(TorId id) {
    if (id < 0 || id >= capacity_) return false;
    std::uint64_t& word = words_[static_cast<std::size_t>(id) / 64];
    const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(id) % 64);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    return true;
  }

  bool contains(TorId id) const {
    return id >= 0 && id < capacity_ &&
           (words_[static_cast<std::size_t>(id) / 64] &
            (1ULL << (static_cast<std::size_t>(id) % 64))) != 0;
  }

  /// O(N/64) word scans: no count is kept, so a flip stays one bit op.
  bool empty() const {
    return std::all_of(words_.begin(), words_.end(),
                       [](std::uint64_t w) { return w == 0; });
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  const_iterator begin() const {
    return const_iterator(words_.data(), words_.size(), 0);
  }
  const_iterator end() const {
    return const_iterator(words_.data(), words_.size(), words_.size());
  }

  /// Smallest member; kInvalidTor when empty.
  TorId first_member() const { return next_member_after(-1); }

  /// Smallest member strictly greater than `id` (kInvalidTor when none) —
  /// a count-trailing-zeros scan over the bitmap words, O(words) worst
  /// case but O(1) in the common dense case. `id` may be any value; ids
  /// below 0 return the first member.
  TorId next_member_after(TorId id) const {
    const std::size_t start =
        id < 0 ? 0 : static_cast<std::size_t>(id) + 1;
    if (start >= static_cast<std::size_t>(capacity_)) return kInvalidTor;
    std::size_t w = start / 64;
    std::uint64_t word = words_[w] & ~((1ULL << (start % 64)) - 1);
    while (true) {
      if (word != 0) {
        return static_cast<TorId>(w * 64 +
                                  static_cast<std::size_t>(
                                      std::countr_zero(word)));
      }
      if (++w == words_.size()) return kInvalidTor;
      word = words_[w];
    }
  }

 private:
  void grow_to(TorId id) {
    NEG_ASSERT(id >= 0, "negative id");
    if (id >= capacity_) {
      capacity_ = id + 1;
      words_.resize((static_cast<std::size_t>(capacity_) + 63) / 64, 0);
    }
  }

  int capacity_{0};
  std::vector<std::uint64_t> words_;
};

class ActiveSet {
 public:
  using const_iterator = std::vector<TorId>::const_iterator;

  ActiveSet() = default;
  explicit ActiveSet(int capacity) { reset(capacity); }

  /// Clears the set and sizes the bitmap for ids in [0, capacity).
  void reset(int capacity) {
    bits_.reset(capacity);
    sorted_.clear();
  }

  void insert(TorId id) {
    if (bits_.insert(id)) {
      sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), id),
                     id);
    }
  }

  void erase(TorId id) {
    if (bits_.erase(id)) {
      sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), id));
    }
  }

  bool contains(TorId id) const { return bits_.contains(id); }

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }

  /// Ascending iteration over the live ids (the stable sorted view).
  const_iterator begin() const { return sorted_.begin(); }
  const_iterator end() const { return sorted_.end(); }

  /// Smallest member; kInvalidTor when empty.
  TorId first_member() const {
    return sorted_.empty() ? kInvalidTor : sorted_.front();
  }

  /// Smallest member strictly greater than `id`; see TorBitmap.
  TorId next_member_after(TorId id) const {
    return bits_.next_member_after(id);
  }

 private:
  TorBitmap bits_;
  std::vector<TorId> sorted_;
};

}  // namespace negotiator
