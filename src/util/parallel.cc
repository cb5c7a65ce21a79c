#include "util/parallel.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace densim {

namespace {

/** what() of a captured exception, or a placeholder for non-std. */
std::string
describeException(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "(non-standard exception)";
    }
}

} // namespace

WorkerPool::WorkerPool(unsigned threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency()))
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &helper : helpers_)
        helper.join();
}

void
WorkerPool::helperLoop(unsigned index, std::uint64_t seen)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || (generation_ != seen && index < active_);
            });
            if (stop_)
                return;
            seen = generation_;
        }
        work(index);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--busy_ == 0)
            done_.notify_one();
    }
}

void
WorkerPool::work(unsigned worker)
{
    for (;;) {
        if (failed_.load(std::memory_order_acquire))
            return;
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        try {
            task_.call(task_.fn, i);
        } catch (...) {
            failures_[worker].error = std::current_exception();
            failures_[worker].item = i;
            if (!failed_.exchange(true, std::memory_order_acq_rel))
                first_ = failures_[worker].error;
            return;
        }
    }
}

void
WorkerPool::runErased(std::size_t count, Task task, Task lead)
{
    // The caller is the last worker, so a run of count items needs
    // min(threads, count) - 1 helpers, however large threads is.
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        threads_, std::max<std::size_t>(count, 1)));
    const unsigned helpers = workers - 1;
    while (helpers_.size() < helpers)
        helpers_.emplace_back(&WorkerPool::helperLoop, this,
                              static_cast<unsigned>(helpers_.size()),
                              generation_);

    task_ = task;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_ = nullptr;
    failures_.assign(workers, Failure{});
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = helpers;
        busy_ = helpers;
        ++generation_;
    }
    if (helpers > 0)
        wake_.notify_all();

    std::exception_ptr leadError;
    try {
        lead.call(lead.fn, 0);
    } catch (...) {
        leadError = std::current_exception();
        failed_.store(true, std::memory_order_release);
    }
    work(helpers);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return busy_ == 0; });
    }
    if (!first_ && !leadError)
        return;
    // Report every captured failure — not just the one about to be
    // rethrown — so a second worker dying in the same run leaves a
    // diagnostic instead of vanishing.
    for (unsigned w = 0; w < workers; ++w) {
        if (failures_[w].error) {
            warn("parallelFor: worker ", w, ": item ", failures_[w].item,
                 " failed: ", describeException(failures_[w].error));
        }
    }
    std::rethrow_exception(leadError ? leadError : first_);
}

} // namespace densim
