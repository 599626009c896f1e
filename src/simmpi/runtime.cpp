#include "simmpi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <numeric>
#include <thread>

#include "obs/trace.hpp"
#include "simmpi/comm.hpp"

namespace hetero::simmpi {

Runtime::Runtime(netsim::Topology topology)
    : topology_(std::move(topology)),
      mailboxes_(static_cast<std::size_t>(topology_.ranks())),
      clocks_(static_cast<std::size_t>(topology_.ranks())),
      stats_(static_cast<std::size_t>(topology_.ranks())) {}

Runtime::~Runtime() = default;

void Runtime::run(const std::function<void(Comm&)>& rank_main) {
  const int p = size();
  for (int r = 0; r < p; ++r) {
    clocks_[static_cast<std::size_t>(r)].reset();
    stats_[static_cast<std::size_t>(r)] = CommStats{};
    stats_[static_cast<std::size_t>(r)].bytes_by_dest.assign(
        static_cast<std::size_t>(p), 0);
    mailboxes_[static_cast<std::size_t>(r)].queue.clear();
    mailboxes_[static_cast<std::size_t>(r)].exited.store(false);
  }
  aborted_.store(false);
  groups_.clear();
  std::vector<int> world(static_cast<std::size_t>(p));
  std::iota(world.begin(), world.end(), 0);
  Group& world_group = *groups_
                            .emplace(0, std::make_unique<Group>(
                                            0, std::move(world)))
                            .first->second;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      // Each rank thread records trace events on its own row.
      obs::bind_trace_rank(r);
      Comm comm(*this, world_group, r, r);
      try {
        rank_main(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        abort_all();
      }
      mailboxes_[static_cast<std::size_t>(r)].exited.store(true);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

double Runtime::elapsed_sim_seconds() const {
  double t = 0.0;
  for (const auto& clock : clocks_) {
    t = std::max(t, clock.time());
  }
  return t;
}

const CommStats& Runtime::stats(int rank) const {
  HETERO_REQUIRE(rank >= 0 && rank < size(), "stats(): rank out of range");
  return stats_[static_cast<std::size_t>(rank)];
}

void Runtime::post_send(int source, int dest, int tag, std::uint64_t group,
                        std::vector<std::byte> payload, double depart_time) {
  HETERO_REQUIRE(dest >= 0 && dest < size(), "send: destination out of range");
  auto& box = mailboxes_[static_cast<std::size_t>(dest)];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queue.push_back(
        Envelope{source, tag, group, std::move(payload), depart_time});
    wake = box.waiting && box.want_source == source &&
           box.want_tag == tag && box.want_group == group;
  }
  if (wake) {
    box.cv.notify_one();  // only the owner ever waits on its mailbox
  }
}

Runtime::Envelope Runtime::blocking_recv(int self, int source, int tag,
                                         std::uint64_t group) {
  HETERO_REQUIRE(source >= 0 && source < size(), "recv: source out of range");
  auto& box = mailboxes_[static_cast<std::size_t>(self)];
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(box.mutex);
  box.want_source = source;
  box.want_tag = tag;
  box.want_group = group;
  for (;;) {
    box.waiting = false;
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->source == source && it->tag == tag && it->group == group) {
        Envelope env = std::move(*it);
        box.queue.erase(it);
        return env;
      }
    }
    const bool aborted = aborted_.load();
    if (aborted &&
        mailboxes_[static_cast<std::size_t>(source)].exited.load()) {
      throw Aborted();  // the sender is gone: the message can never come
    }
    if (recv_timeout_s_ > 0.0) {
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (waited > recv_timeout_s_) {
        // A matching message never arrived: almost certainly a deadlocked
        // or mismatched communication pattern. Fail loudly instead of
        // hanging the host process.
        abort_all();
        throw Error("simmpi: rank " + std::to_string(self) +
                    " waited " + std::to_string(waited) +
                    " s for a message from rank " + std::to_string(source) +
                    " (tag " + std::to_string(tag) +
                    ") — deadlock or mismatched send/recv pattern");
      }
    }
    box.waiting = true;
    if (aborted) {
      box.cv.wait_for(lock, std::chrono::microseconds(200));
    } else {
      box.cv.wait_for(lock, std::chrono::milliseconds(50));
    }
  }
}

Runtime::Group::Group(std::uint64_t group_id, std::vector<int> world_ranks)
    : id(group_id),
      members(std::move(world_ranks)),
      inputs(members.size()),
      entry(members.size()),
      cost(members.size()),
      kind(members.size()) {}

Runtime::Group& Runtime::intern_group(std::vector<int> members) {
  HETERO_REQUIRE(!members.empty(), "a group needs at least one member");
  // FNV over the member list; nudge on (astronomically unlikely) collision.
  std::uint64_t id = 1469598103934665603ULL;
  for (int m : members) {
    id ^= static_cast<std::uint64_t>(m) + 0x9e3779b9ULL;
    id *= 1099511628211ULL;
  }
  if (id == 0) {
    id = 1;  // 0 is the world communicator
  }
  std::lock_guard<std::mutex> lock(groups_mutex_);
  for (;;) {
    auto it = groups_.find(id);
    if (it == groups_.end()) {
      auto g = std::make_unique<Group>(id, std::move(members));
      if (aborted_.load()) {
        g->word.store(1);  // born into a dying job: waiters poll for exits
      }
      return *groups_.emplace(id, std::move(g)).first->second;
    }
    if (it->second->members == members) {
      return *it->second;  // same membership: safe to share
    }
    ++id;
  }
}

std::vector<std::byte> Runtime::rendezvous(Group& g, int member,
                                           const char* kind,
                                           std::vector<std::byte> input,
                                           const CombineFn& combine,
                                           double cost_seconds,
                                           double entry_time,
                                           double* exit_time) {
  const std::uint32_t word = g.word.load(std::memory_order_acquire);
  const auto m = static_cast<std::size_t>(member);
  const std::size_t n = g.members.size();
  g.inputs[m] = std::move(input);
  g.entry[m] = entry_time;
  g.cost[m] = cost_seconds;
  g.kind[m] = kind;
  if (g.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<int>(n)) {
    // Last arrival: every slot is written. Combine, publish, release.
    double max_entry = g.entry[0];
    double max_cost = g.cost[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (std::strcmp(g.kind[i], g.kind[0]) != 0) {
        throw Error("simmpi: mismatched collectives: rank " +
                    std::to_string(g.members[0]) + " entered " + g.kind[0] +
                    ", rank " + std::to_string(g.members[i]) + " entered " +
                    g.kind[i]);
      }
      max_entry = std::max(max_entry, g.entry[i]);
      max_cost = std::max(max_cost, g.cost[i]);
    }
    g.result = combine ? combine(g.inputs)
                       : std::vector<std::vector<std::byte>>{};
    HETERO_CHECK(!combine || g.result.size() == 1 || g.result.size() == n);
    g.exit = max_entry + max_cost * degradation_.factor_at(max_entry);
    g.arrived.store(0, std::memory_order_relaxed);
    g.word.fetch_add(2, std::memory_order_release);
    g.word.notify_all();
  } else {
    // Done once the generation moves, even if an abort raced in behind the
    // last arrival. After an abort, fail only when a member has exited.
    for (;;) {
      const std::uint32_t now = g.word.load(std::memory_order_acquire);
      if ((now >> 1) != (word >> 1)) {
        break;
      }
      if ((now & 1U) == 0) {
        g.word.wait(now, std::memory_order_acquire);
      } else if (member_exited(g)) {
        throw Aborted();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  *exit_time = g.exit;
  if (g.result.empty()) {
    return {};
  }
  if (g.result.size() == 1 && n > 1) {
    return g.result.front();  // shared: every member copies
  }
  return std::move(g.result[m]);  // personalized: this member's own
}

void Runtime::abort_all() {
  aborted_.store(true);
  for (auto& box : mailboxes_) {
    box.cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(groups_mutex_);
  for (auto& [id, g] : groups_) {
    g->word.fetch_or(1);
    g->word.notify_all();
  }
}

bool Runtime::member_exited(const Group& g) const {
  for (const int m : g.members) {
    if (mailboxes_[static_cast<std::size_t>(m)].exited.load()) {
      return true;
    }
  }
  return false;
}

}  // namespace hetero::simmpi
