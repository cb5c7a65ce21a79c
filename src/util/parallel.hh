/**
 * @file
 * A worker pool over an index range with exception propagation: the
 * pool behind the sweep harness (core/experiment.hh, one-shot through
 * parallelFor) and
 * the fleet shard barrier (fleet/fleet_sim.hh, which keeps one pool
 * for the fleet's lifetime).
 *
 * A pool of T threads is T − 1 helper threads plus the calling
 * thread, which is always the last worker. Helpers start on the first
 * run that needs them, never more than min(T, items) − 1, and between
 * runs they block on a condition variable; they never spin. Work
 * items are claimed from an atomic counter, so any number of items
 * runs on a bounded pool and a slow item never idles the other
 * workers.
 *
 * No exception escapes a helper thread (which would end the process
 * through std::terminate): every worker's first exception is captured
 * in a per-worker slot, remaining items are abandoned (workers stop
 * claiming), every captured failure is reported on stderr (worker
 * index, item index, what()) once all workers are done, and the
 * first-captured exception is rethrown on the calling thread — a
 * failed cell surfaces as an ordinary exception instead of a lost
 * process, and a second concurrent failure is reported instead of
 * silently swallowed. The next run starts with no failure left over.
 */

#ifndef DENSIM_UTIL_PARALLEL_HH
#define DENSIM_UTIL_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace densim {

/** Persistent workers for repeated parallel runs over index ranges. */
class WorkerPool
{
  public:
    /**
     * A pool of @p threads workers, the calling thread included
     * (0 = hardware concurrency). No thread starts until a run needs
     * it.
     */
    explicit WorkerPool(unsigned threads);

    /** Stops and joins the helpers; never call it during a run. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Invoke fn(i) for every i in [0, count) on up to
     * min(threads, count) workers and return once all are done.
     * Completion order is unspecified; fn must handle its own
     * synchronization for shared state (writing to distinct
     * per-index slots is safe). When work items throw, every
     * captured exception is reported via warn() and the
     * first-captured one is rethrown here. One run at a time: run()
     * is not reentrant and must be called from one thread at a time.
     */
    template <typename Fn>
    void
    run(std::size_t count, Fn &&fn)
    {
        run(count, std::forward<Fn>(fn), [] {});
    }

    /**
     * As run(count, fn), but the calling thread first runs lead()
     * while the helpers already claim items, then claims items
     * itself. lead must touch no state the items touch. If lead
     * throws, the remaining items are abandoned and its exception is
     * rethrown once every helper is done.
     */
    template <typename Fn, typename Lead>
    void
    run(std::size_t count, Fn &&fn, Lead &&lead)
    {
        runErased(count,
                  {[](void *f, std::size_t i) {
                       (*static_cast<std::remove_reference_t<Fn> *>(f))(
                           i);
                   },
                   erase(fn)},
                  {[](void *f, std::size_t) {
                       (*static_cast<std::remove_reference_t<Lead> *>(
                           f))();
                   },
                   erase(lead)});
    }

  private:
    /** A borrowed callable: call(fn, item). No allocation per run. */
    struct Task
    {
        void (*call)(void *, std::size_t);
        void *fn;
    };

    /** First exception of one worker in the current run. */
    struct Failure
    {
        std::exception_ptr error;
        std::size_t item = 0; //!< Work item that threw it.
    };

    template <typename T>
    static void *
    erase(T &callable)
    {
        return const_cast<void *>(
            static_cast<const void *>(std::addressof(callable)));
    }

    void runErased(std::size_t count, Task task, Task lead);
    void helperLoop(unsigned index, std::uint64_t seen);
    /** Claim and run items until none are left or one failed. */
    void work(unsigned worker);

    unsigned threads_; //!< Workers, the calling thread included.

    std::mutex mutex_;
    std::condition_variable wake_; //!< Helpers: a run began, or stop.
    std::condition_variable done_; //!< Caller: the last helper is done.
    std::uint64_t generation_ = 0; //!< Runs begun; guarded by mutex_.
    unsigned active_ = 0;          //!< Helpers in this run; guarded.
    unsigned busy_ = 0;            //!< Of those, still working; guarded.
    bool stop_ = false;            //!< Guarded.

    // Written by the caller before it wakes the helpers, read by the
    // workers; each worker writes only its own failure slot.
    Task task_{};
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr first_; //!< Written once by the failed_ winner.
    std::vector<Failure> failures_;

    // Last, so every member a helper uses outlives it.
    std::vector<std::thread> helpers_;
};

/**
 * Invoke fn(i) for every i in [0, count) on up to @p threads workers,
 * the calling thread included (0 = hardware concurrency): a one-shot
 * WorkerPool, with its failure contract.
 */
template <typename Fn>
void
parallelFor(std::size_t count, unsigned threads, Fn &&fn)
{
    WorkerPool(threads).run(count, std::forward<Fn>(fn));
}

} // namespace densim

#endif // DENSIM_UTIL_PARALLEL_HH
