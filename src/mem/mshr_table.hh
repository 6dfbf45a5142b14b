/**
 * @file
 * A small open-addressing hash table keyed by line address.
 *
 * The reuse profiler (src/model) maps lines to their stack slots,
 * and the tree fabric's snoop filter (src/net) maps them to
 * directory entries. Each lookup sits on a per-reference or
 * per-transaction hot path, where std::unordered_map pays a heap
 * node per entry and a pointer chase per probe. This table keeps
 * the entries in one flat power-of-two array with linear probing
 * and backward-shift deletion: no tombstones, no allocation after
 * construction (until a rare growth), and the common miss — "no
 * entry for this line" — is one hash, one load, one compare.
 *
 * Not a general map: keys must never equal invalidAddr.
 */

#ifndef SCMP_MEM_MSHR_TABLE_HH
#define SCMP_MEM_MSHR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace scmp
{

/** Flat line-address → Value map. */
template <typename Value>
class LineMap
{
  public:
    explicit LineMap(std::size_t initialSlots = 32)
    {
        std::size_t slots = 4;
        while (slots < initialSlots)
            slots *= 2;
        _slots.assign(slots, Slot{});
        _mask = slots - 1;
    }

    /** Outstanding entries. */
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /**
     * Find the value for @p lineAddr.
     * @return pointer to the stored value (mutable, stable until
     *         the next insert/erase), or nullptr when absent.
     */
    Value *
    find(Addr lineAddr)
    {
        return const_cast<Value *>(std::as_const(*this).find(lineAddr));
    }

    const Value *
    find(Addr lineAddr) const
    {
        std::size_t i = home(lineAddr);
        while (_slots[i].key != invalidAddr) {
            if (_slots[i].key == lineAddr)
                return &_slots[i].value;
            i = (i + 1) & _mask;
        }
        return nullptr;
    }

    /** Insert @p lineAddr → @p value, overwriting any entry. */
    void
    set(Addr lineAddr, Value value)
    {
        panic_if(lineAddr == invalidAddr,
                 "line table key must be a real line address");
        if ((_size + 1) * 4 > _slots.size() * 3)
            grow();
        std::size_t i = home(lineAddr);
        while (_slots[i].key != invalidAddr) {
            if (_slots[i].key == lineAddr) {
                _slots[i].value = value;
                return;
            }
            i = (i + 1) & _mask;
        }
        _slots[i] = Slot{lineAddr, value};
        ++_size;
    }

    /**
     * Remove @p lineAddr's entry if present.
     * @return true when an entry was removed.
     */
    bool
    erase(Addr lineAddr)
    {
        std::size_t i = home(lineAddr);
        while (_slots[i].key != lineAddr) {
            if (_slots[i].key == invalidAddr)
                return false;
            i = (i + 1) & _mask;
        }
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain into the vacated slot so lookups never
        // need tombstones.
        std::size_t hole = i;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & _mask;
            if (_slots[j].key == invalidAddr)
                break;
            std::size_t h = home(_slots[j].key);
            // Move j into the hole only if the hole lies on j's
            // probe path, i.e. distance(h → hole) <= distance(h → j).
            if (((j - h) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole] = _slots[j];
                hole = j;
            }
        }
        _slots[hole] = Slot{};
        --_size;
        return true;
    }

    void
    clear()
    {
        _slots.assign(_slots.size(), Slot{});
        _size = 0;
    }

    /**
     * Start loading @p lineAddr's home slot into the cache, so a
     * find() issued a little later overlaps the miss with other
     * work.
     */
    void
    prefetch(Addr lineAddr) const
    {
        __builtin_prefetch(&_slots[home(lineAddr)]);
    }

    /** Call @p visit(key, value) on every entry, in table order. */
    template <typename Visit>
    void
    forEach(Visit &&visit)
    {
        for (Slot &slot : _slots) {
            if (slot.key != invalidAddr)
                visit(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        Addr key = invalidAddr;  //!< invalidAddr marks an empty slot
        Value value{};
    };

    std::size_t
    home(Addr key) const
    {
        // Fibonacci-style multiplicative mix; line addresses share
        // low zero bits, so fold the high bits back down.
        std::uint64_t h = (std::uint64_t)key * 0x9e3779b97f4a7c15ull;
        return (std::size_t)(h >> 32) & _mask;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(old.size() * 2, Slot{});
        _mask = _slots.size() - 1;
        _size = 0;
        for (const Slot &slot : old) {
            if (slot.key != invalidAddr)
                set(slot.key, slot.value);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    std::size_t _size = 0;
};

} // namespace scmp

#endif // SCMP_MEM_MSHR_TABLE_HH
