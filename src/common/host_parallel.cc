#include "src/common/host_parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sgxb {

uint32_t HostHardwareThreads() {
  const uint32_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ParallelFor(size_t n, uint32_t threads, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const uint32_t workers =
      static_cast<uint32_t>(std::min<size_t>(threads == 0 ? 1 : threads, n));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto body = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (uint32_t t = 1; t < workers; ++t) {
    pool.emplace_back(body);
  }
  body();  // the calling thread is worker 0
  for (auto& th : pool) {
    th.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace sgxb
