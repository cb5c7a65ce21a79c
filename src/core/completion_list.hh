/**
 * @file
 * The job completions due inside the current power-management epoch
 * — the completion queue of the dense-server simulator.
 *
 * processWindow never handles an event at or after the epoch end, and
 * powerManage re-keys every busy socket at the start of every epoch.
 * So the queue only needs the busy sockets due before that end (the
 * horizon): powerManage offers each one as its loop re-keys it and
 * sorts the list once after the loop, and a placement or migration
 * inside the epoch inserts, moves or drops one entry. Only a few are
 * ever listed, so they live in one vector sorted on (key, id)
 * descending, earliest at the back. Equal completion times resolve
 * to the lowest socket id, the order of an ascending linear scan with
 * strict less-than.
 */

#ifndef DENSIM_CORE_COMPLETION_LIST_HH
#define DENSIM_CORE_COMPLETION_LIST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/effects.hh"
#include "core/invariant.hh"
#include "util/logging.hh"

namespace densim {

/** Ids in [0, n) keyed below the horizon, smallest (key, id) first. */
class CompletionList
{
  public:
    /** Empty, with room for @p n ids; nothing is listed until open(). */
    void reset(std::size_t n)
    {
        entries_.clear();
        entries_.reserve(n);
        horizon_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Start relisting under @p horizon: drop every entry and keep the
     * horizon. offer() the due ids, then close() before any other
     * call.
     */
    void open(double horizon)
    {
        entries_.clear();
        horizon_ = horizon;
    }

    /** List @p id if @p key is below the horizon; open() .. close(). */
    DENSIM_ALLOCATES("one entry per id, within the capacity reserved "
                     "in reset")
    void offer(std::size_t id, double key)
    {
        if (key < horizon_)
            entries_.push_back(Entry{key, id});
    }

    /** Order the offered entries. */
    void close() { std::sort(entries_.begin(), entries_.end(), later); }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Id with the smallest (key, id); the list must be non-empty. */
    std::size_t top() const
    {
        if (entries_.empty())
            panic("CompletionList::top on an empty list");
        return entries_.back().id;
    }

    /** Key of top(); +inf when empty (nothing due this epoch). */
    double topKey() const
    {
        return entries_.empty() ? std::numeric_limits<double>::infinity()
                                : entries_.back().key;
    }

    /** Re-key @p id: listed once if @p key is below the horizon. */
    DENSIM_ALLOCATES("one entry per id, within the capacity reserved "
                     "in reset")
    void upsert(std::size_t id, double key)
    {
        erase(id);
        if (!(key < horizon_))
            return;
        const Entry e{key, id};
        entries_.insert(
            std::upper_bound(entries_.begin(), entries_.end(), e, later),
            e);
    }

    /** Drop @p id; no-op if it is not listed. */
    void erase(std::size_t id)
    {
        // Completions pop the back, so search from there.
        for (std::size_t i = entries_.size(); i-- > 0;) {
            if (entries_[i].id == id) {
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    /**
     * Assert (DENSIM_CHECK) strict (key, id) order, every entry busy
     * and keyed at its @p keys value, and every busy id keyed below
     * the horizon listed.
     */
    void checkInvariants(const std::vector<double> &keys,
                         const std::vector<std::uint8_t> &busy) const
    {
#if DENSIM_ENABLE_CHECKS
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            DENSIM_CHECK(e.id < keys.size() && busy[e.id] &&
                             e.key == keys[e.id],
                         "CompletionList: id ", e.id, " listed at ",
                         e.key, " is idle or due at another time");
            DENSIM_CHECK(i == 0 || later(entries_[i - 1], e),
                         "CompletionList: entries ", i - 1, " and ", i,
                         " are out of order");
        }
        // Strict order with key == keys[id] lists each id at most
        // once, so equal counts mean every due id is listed.
        std::size_t due = 0;
        for (std::size_t id = 0; id < keys.size(); ++id)
            due += busy[id] && keys[id] < horizon_ ? 1 : 0;
        DENSIM_CHECK(due == entries_.size(), "CompletionList: ", due,
                     " busy ids due before ", horizon_, ", ",
                     entries_.size(), " listed");
#else
        (void)keys;
        (void)busy;
#endif
    }

  private:
    struct Entry
    {
        double key;
        std::size_t id;
    };

    /** Descending (key, id): the earliest entry sorts last. */
    static bool later(const Entry &a, const Entry &b)
    {
        return a.key > b.key || (a.key == b.key && a.id > b.id);
    }

    std::vector<Entry> entries_;
    double horizon_ = -std::numeric_limits<double>::infinity();
};

} // namespace densim

#endif // DENSIM_CORE_COMPLETION_LIST_HH
