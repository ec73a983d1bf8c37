/**
 * @file
 * Flat hash table keyed by an address: the directory's line table, the
 * value memory's words, a private cache's MSHRs and its writeback
 * buffer.
 */

#ifndef ROWSIM_MEM_ADDR_TABLE_HH
#define ROWSIM_MEM_ADDR_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace rowsim
{

/**
 * Map from an address to a @p V, stored in one vector of slots: open
 * addressing, linear probing, power-of-two capacity (or none) at load
 * ≤ 3/4, invalidAddr marking an empty slot. A probe starts at a
 * Fibonacci (multiplicative) hash of `key >> KeyShift` (the key's
 * granule: a line or a word) and keeps the product's top bits, which
 * every key bit feeds: the lines one directory bank homes share their
 * low line-number bits, so a masked key would reach a fraction of the
 * slots. Erase shifts the rest of the probe run back into the hole, so
 * no tombstone ever lengthens a probe.
 *
 * Inserting may regrow the table and erasing moves the slots after the
 * hole: hold keys or slot indices, never a slot or value reference,
 * across any call that can insert or erase (an index, too, is stale
 * after one).
 */
template <class V, unsigned KeyShift>
class AddrTable
{
  public:
    using mapped_type = V;
    struct Slot
    {
        Addr key = invalidAddr;
        V value{};
    };
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t size() const { return used_; }
    bool empty() const { return used_ == 0; }

    /** Slot index of @p key, or npos. */
    std::size_t
    find(Addr key) const
    {
        if (slots_.empty())
            return npos;
        const std::size_t i = probe(key);
        return slots_[i].key == key ? i : npos;
    }
    bool contains(Addr key) const { return find(key) != npos; }

    /** Slot index of @p key, inserting a default value when absent. */
    std::size_t
    findOrInsert(Addr key)
    {
        if ((used_ + 1) * 4 > slots_.size() * 3)
            rehash(std::max(minSlots, slots_.size() * 2));
        const std::size_t i = probe(key);
        if (slots_[i].key != key) {
            slots_[i].key = key;
            used_++;
        }
        return i;
    }

    V &operator[](Addr key) { return slots_[findOrInsert(key)].value; }
    Addr key(std::size_t i) const { return slots_[i].key; }
    V &value(std::size_t i) { return slots_[i].value; }
    const V &value(std::size_t i) const { return slots_[i].value; }

    /** Remove @p key's entry; false when there was none. */
    bool
    erase(Addr key)
    {
        std::size_t hole = find(key);
        if (hole == npos)
            return false;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].key != invalidAddr;
             j = (j + 1) & mask) {
            // Slot j's entry may fill the hole when the hole lies on its
            // probe path, from its home up to j.
            if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        used_--;
        return true;
    }

    /** Drop every entry and the storage with them. */
    void
    clear()
    {
        std::vector<Slot>().swap(slots_);
        used_ = 0;
    }

    /** Room for @p n entries in all: inserts up to that count do not
     *  regrow the table. */
    void
    reserve(std::size_t n)
    {
        std::size_t capacity = minSlots;
        while (n * 4 > capacity * 3)
            capacity *= 2;
        if (capacity > slots_.size())
            rehash(capacity);
    }

    /** Every slot, empty ones (key invalidAddr) included, in table
     *  order. */
    const std::vector<Slot> &slots() const { return slots_; }

    /** Apply @p fn(key, value) to every entry in ascending key order:
     *  saves and diagnostic dumps list entries this way, so nothing
     *  observable depends on the table layout. */
    template <typename Fn>
    void
    forEachSorted(Fn &&fn) const
    {
        std::vector<std::pair<Addr, std::size_t>> order;
        order.reserve(used_);
        for (std::size_t i = 0; i < slots_.size(); i++) {
            if (slots_[i].key != invalidAddr)
                order.emplace_back(slots_[i].key, i);
        }
        std::sort(order.begin(), order.end());
        for (const auto &[key, i] : order)
            fn(key, slots_[i].value);
    }

  private:
    /** 2^64 / golden ratio. */
    static constexpr std::uint64_t fibonacciHash = 0x9E3779B97F4A7C15ULL;
    /** Smallest non-empty table. */
    static constexpr std::size_t minSlots = 16;

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            ((key >> KeyShift) * fibonacciHash) >> hashShift);
    }

    /** The slot holding @p key, or the empty slot that ends its probe
     *  run (the table must be non-empty). */
    std::size_t
    probe(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != invalidAddr)
            i = (i + 1) & mask;
        return i;
    }

    /** Re-home every entry into @p capacity slots (a power of two,
     *  larger than the entry count); the old slots go when it
     *  returns. */
    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        hashShift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (Slot &s : old) {
            if (s.key != invalidAddr)
                slots_[probe(s.key)] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
    /** 64 - log2(capacity): the hash keeps the product's top bits. */
    unsigned hashShift = 64;
};

} // namespace rowsim

#endif // ROWSIM_MEM_ADDR_TABLE_HH
