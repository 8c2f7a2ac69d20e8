/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "runtime/thread_pool.hh"

#include <chrono>

#include "common/logging.hh"

namespace bvf::runtime
{

namespace
{

/** Which pool (if any) the calling thread belongs to. */
thread_local const ThreadPool *tlsPool = nullptr;
thread_local int tlsWorker = -1;

} // namespace

double
PoolStats::utilization(int workers) const
{
    if (workers <= 0 || wallNanos == 0)
        return 0.0;
    return static_cast<double>(busyNanos)
           / (static_cast<double>(wallNanos)
              * static_cast<double>(workers));
}

ThreadPool::ThreadPool(int workers)
    : start_(std::chrono::steady_clock::now())
{
    panic_if(workers < 1, "thread pool needs at least one worker, got %d",
             workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    for (int i = 0; i < workers; ++i)
        workers_[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

int
ThreadPool::currentWorker()
{
    return tlsWorker;
}

void
ThreadPool::submit(std::function<void()> task)
{
    panic_if(!task, "null task submitted to thread pool");
    const bool fromWorker = tlsPool == this && tlsWorker >= 0;
    std::size_t target;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        // A draining pool still accepts subtasks from its own workers
        // (a running task may fan out); outside submits must stop.
        panic_if(stopping_ && !fromWorker,
                 "submit() on a stopped thread pool");
        if (fromWorker) {
            // A task spawning subtasks keeps them local; idle peers
            // steal.
            target = static_cast<std::size_t>(tlsWorker);
        } else {
            target = nextQueue_;
            nextQueue_ = (nextQueue_ + 1) % workers_.size();
        }
        // pending_ goes up before the task becomes visible: a worker
        // can only decrement after popping, so the counter can never
        // transiently underflow.
        ++pending_;
    }
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->deque.push_back(std::move(task));
    }
    wakeCv_.notify_one();
}

bool
ThreadPool::popLocal(int self, std::function<void()> &task)
{
    Worker &w = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.deque.empty())
        return false;
    task = std::move(w.deque.back());
    w.deque.pop_back();
    ++w.executed;
    return true;
}

bool
ThreadPool::stealFrom(int self, std::function<void()> &task)
{
    const std::size_t n = workers_.size();
    for (std::size_t k = 1; k < n; ++k) {
        const std::size_t victim =
            (static_cast<std::size_t>(self) + k) % n;
        Worker &w = *workers_[victim];
        bool stolen = false;
        {
            std::lock_guard<std::mutex> lock(w.mutex);
            if (!w.deque.empty()) {
                task = std::move(w.deque.front());
                w.deque.pop_front();
                stolen = true;
            }
        }
        if (stolen) {
            // Counted under the thief's own mutex, which is the lock
            // stats() reads these counters under.
            Worker &me = *workers_[static_cast<std::size_t>(self)];
            std::lock_guard<std::mutex> lock(me.mutex);
            ++me.steals;
            ++me.executed;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(int self)
{
    tlsPool = this;
    tlsWorker = self;
    Worker &me = *workers_[static_cast<std::size_t>(self)];
    for (;;) {
        std::function<void()> task;
        if (!popLocal(self, task))
            stealFrom(self, task);
        if (!task) {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            if (stopping_ && pending_ == 0)
                return;
            wakeCv_.wait(lock, [this] {
                return pending_ > 0 || stopping_;
            });
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            --pending_;
        }
        const auto begin = std::chrono::steady_clock::now();
        task();
        const auto end = std::chrono::steady_clock::now();
        task = nullptr;
        {
            std::lock_guard<std::mutex> lock(me.mutex);
            me.busyNanos += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - begin)
                    .count());
        }
    }
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(wakeMutex_);
    return pending_;
}

PoolStats
ThreadPool::stats() const
{
    PoolStats out;
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mutex);
        out.executed += w->executed;
        out.steals += w->steals;
        out.busyNanos += w->busyNanos;
    }
    out.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    return out;
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stopping_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

} // namespace bvf::runtime
