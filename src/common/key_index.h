// A flat string-keyed index: the per-object table of the object store's
// buckets and of each Dryad node's file share.
//
// Entries live in one dense vector in insertion order; a power-of-two slot
// array of 4-byte entry indices finds them by open addressing with linear
// probing. Each entry keeps its key's hash, so a probe compares hashes
// before keys and growth re-slots the indices without rehashing a key.
// Erase backward-shifts the probe run behind the freed slot (no tombstones)
// and moves the last entry into the freed place, so the vector stays dense
// and iteration visits exactly the live entries: in insertion order until
// the first erase, and deterministically after it.
//
// Compared with a node-based std::unordered_map or std::map, a lookup
// usually costs one slot read and one entry read, and a bucket holding the
// DES drivers' 100k+ objects is two arrays instead of one heap node per
// object.
//
// Not thread-safe: the owning store serializes access under its own lock.
// A pointer returned by find() or try_emplace() is valid until the next
// try_emplace() or erase().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace ppc {

template <typename V>
class KeyIndex {
 public:
  struct Entry {
    std::string key;
    V value{};
    std::size_t hash = 0;
  };

  std::size_t size() const { return entries_.size(); }

  /// Live entries, dense; see the header comment for their order.
  typename std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  typename std::vector<Entry>::const_iterator end() const { return entries_.end(); }

  const V* find(std::string_view key) const {
    const std::size_t slot = find_slot(key, hash_of(key));
    return slot == kNotFound ? nullptr : &entries_[slots_[slot]].value;
  }

  V* find(std::string_view key) { return const_cast<V*>(std::as_const(*this).find(key)); }

  /// The value under `key` and true when it was absent; a new entry starts
  /// value-initialized.
  std::pair<V*, bool> try_emplace(std::string_view key) {
    const std::size_t hash = hash_of(key);
    if (const std::size_t slot = find_slot(key, hash); slot != kNotFound) {
      return {&entries_[slots_[slot]].value, false};
    }
    // Keep at most half the slots full, so every probe run ends early.
    if ((entries_.size() + 1) * 2 > slots_.size()) grow();
    PPC_REQUIRE(entries_.size() < kEmpty, "KeyIndex is full");
    slots_[free_slot(hash)] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{std::string(key), V{}, hash});
    return {&entries_.back().value, true};
  }

  /// Removes `key`; false when it was absent.
  bool erase(std::string_view key) {
    std::size_t hole = find_slot(key, hash_of(key));
    if (hole == kNotFound) return false;
    const std::uint32_t index = slots_[hole];
    // Backward shift: pull each later member of the probe run into the hole
    // unless its home slot lies cyclically after the hole.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j] != kEmpty; j = (j + 1) & mask) {
      const std::size_t home = entries_[slots_[j]].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    // Swap with last: the last entry takes the freed place, and its slot
    // follows it.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (index != last) {
      std::size_t slot = entries_[last].hash & mask;
      while (slots_[slot] != last) slot = (slot + 1) & mask;
      slots_[slot] = index;
      entries_[index] = std::move(entries_[last]);
    }
    entries_.pop_back();
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 16;

  static std::size_t hash_of(std::string_view key) { return std::hash<std::string_view>{}(key); }

  /// The slot holding `key`'s entry index, or kNotFound.
  std::size_t find_slot(std::string_view key, std::size_t hash) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const std::uint32_t index = slots_[slot];
      if (index == kEmpty) return kNotFound;
      const Entry& e = entries_[index];
      if (e.hash == hash && e.key == key) return slot;
    }
  }

  /// The first empty slot on `hash`'s probe run.
  std::size_t free_slot(std::size_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    return slot;
  }

  /// Doubles the slot array and re-slots every entry from its stored hash.
  void grow() {
    slots_.assign(slots_.empty() ? kMinSlots : slots_.size() * 2, kEmpty);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      slots_[free_slot(entries_[i].hash)] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace ppc
