#include "simmpi/comm.hpp"

#include <algorithm>
#include <array>

#include "netsim/collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetero::simmpi {

namespace {

/// Registry handles hoisted out of the per-message paths (the registry
/// lookup takes a mutex; these references are stable for process lifetime).
struct CommMetrics {
  obs::Counter& messages = obs::metrics().counter("simmpi.messages");
  obs::Counter& p2p_bytes = obs::metrics().counter("simmpi.p2p_bytes");
  obs::Counter& collectives = obs::metrics().counter("simmpi.collectives");
  obs::Counter& collective_wait_s =
      obs::metrics().counter("simmpi.collective_wait_s");
};

CommMetrics& comm_metrics() {
  static CommMetrics metrics;
  return metrics;
}

/// Element-wise combine for reductions over a flat byte image of T. The
/// accumulator is the output image itself and every element is read in
/// place, so the last arrival's serial path allocates once per collective.
/// The accumulation runs in member order, as a sum over ranks must.
template <class T>
std::vector<std::byte> combine_reduce(
    const std::vector<std::vector<std::byte>>& inputs, ReduceOp op) {
  const std::size_t bytes = inputs.front().size();
  for (const auto& in : inputs) {
    HETERO_REQUIRE(in.size() == bytes,
                   "allreduce: ranks passed differently sized inputs");
  }
  std::vector<std::byte> out(inputs.front());
  const auto fold = [&](auto f) {
    for (std::size_t r = 1; r < inputs.size(); ++r) {
      for (std::size_t off = 0; off < bytes; off += sizeof(T)) {
        T acc{};
        T other{};
        std::memcpy(&acc, out.data() + off, sizeof(T));
        std::memcpy(&other, inputs[r].data() + off, sizeof(T));
        acc = f(acc, other);
        std::memcpy(out.data() + off, &acc, sizeof(T));
      }
    }
  };
  switch (op) {
    case ReduceOp::kSum: fold([](T a, T b) { return a + b; }); break;
    case ReduceOp::kMin: fold([](T a, T b) { return std::min(a, b); }); break;
    case ReduceOp::kMax: fold([](T a, T b) { return std::max(a, b); }); break;
  }
  return out;
}

/// Concatenation of every member's input, in member order.
std::vector<std::byte> concatenate(
    const std::vector<std::vector<std::byte>>& inputs) {
  std::size_t total = 0;
  for (const auto& in : inputs) {
    total += in.size();
  }
  std::vector<std::byte> out;
  out.reserve(total);
  for (const auto& in : inputs) {
    out.insert(out.end(), in.begin(), in.end());
  }
  return out;
}

}  // namespace

Comm Comm::split(int color, int key) {
  // Share (color, key, world rank) across the current communicator.
  const std::vector<std::int64_t> mine{color, key, rank_};
  const auto all = allgatherv(std::span<const std::int64_t>(mine));
  HETERO_CHECK(all.size() == static_cast<std::size_t>(size()) * 3);
  std::vector<std::array<std::int64_t, 2>> picks;  // (key, world rank)
  for (std::size_t i = 0; i + 2 < all.size(); i += 3) {
    if (all[i] == color) {
      picks.push_back({all[i + 1], all[i + 2]});
    }
  }
  std::sort(picks.begin(), picks.end());
  std::vector<int> members;
  members.reserve(picks.size());
  int group_rank = -1;
  for (const auto& p : picks) {
    if (p[1] == rank_) {
      group_rank = static_cast<int>(members.size());
    }
    members.push_back(static_cast<int>(p[1]));
  }
  HETERO_CHECK(group_rank >= 0);

  const int group_size = static_cast<int>(members.size());
  Comm sub(*runtime_, runtime_->intern_group(std::move(members)), rank_,
           group_rank);
  // Approximate sub-communicator costs with a uniform topology of the same
  // fabrics (exact placement would need the member->node mapping, which the
  // uniform packing makes a fair approximation of).
  const netsim::Topology& world = runtime_->topology();
  sub.group_topo_ = std::make_shared<netsim::Topology>(
      netsim::Topology::uniform(group_size,
                                std::min(world.ranks_per_node(), group_size),
                                world.inter_node_fabric(),
                                world.intra_node_fabric(),
                                world.cross_group_penalty()));
  return sub;
}

void Comm::send_bytes(std::vector<std::byte> payload, int dest, int tag) {
  const int world_dest = world_of(dest);
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.messages_sent;
  stats.bytes_sent += payload.size();
  if (!stats.bytes_by_dest.empty()) {
    stats.bytes_by_dest[static_cast<std::size_t>(world_dest)] +=
        payload.size();
  }

  // Sender-side overhead: push the bytes into the NIC/shared segment. The
  // wire/latency part is charged to the receiver at matching time.
  const netsim::Topology& topo = runtime_->topology();
  const netsim::Fabric& fabric = topo.same_node(rank_, world_dest)
                                     ? topo.intra_node_fabric()
                                     : topo.inter_node_fabric();
  const double bytes = static_cast<double>(payload.size());
  const double before = now();
  const double overhead =
      (0.5 * fabric.params().latency_s +
       bytes / fabric.params().bandwidth_bps) *
      runtime_->degradation_.factor_at(before);
  clock().advance(overhead);
  stats.comm_seconds += overhead;

  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, "send", "simmpi", before, now(), "bytes", bytes);
  }
  auto& metrics = comm_metrics();
  metrics.messages.increment();
  metrics.p2p_bytes.add(bytes);

  runtime_->post_send(rank_, world_dest, tag, group_->id, std::move(payload),
                      now());
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) {
  auto env =
      runtime_->blocking_recv(rank_, world_of(source), tag, group_->id);
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.messages_received;
  stats.bytes_received += env.payload.size();

  const double before = now();
  // Degradation is sampled at the departure instant so sender and receiver
  // agree on the window regardless of host-thread scheduling.
  const double transfer =
      runtime_->topology().message_time(env.source, rank_,
                                        env.payload.size()) *
      runtime_->degradation_.factor_at(env.depart_time);
  clock().advance_to(env.depart_time + transfer);
  stats.comm_seconds += now() - before;
  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, "recv", "simmpi", before, now(), "bytes",
                    static_cast<double>(env.payload.size()));
  }
  return std::move(env.payload);
}

std::vector<std::byte> Comm::run_collective(const char* kind,
                                            std::vector<std::byte> input,
                                            const Runtime::CombineFn& combine,
                                            double cost) {
  const double before = now();
  double exit_time = 0.0;
  auto result = runtime_->rendezvous(*group_, member_, kind, std::move(input),
                                     combine, cost, before, &exit_time);
  auto& stats = runtime_->stats_[static_cast<std::size_t>(rank_)];
  ++stats.collectives;
  clock().advance_to(exit_time);
  const double waited = now() - before;
  stats.comm_seconds += waited;
  if (auto* trace = obs::current_trace()) {
    trace->complete(rank_, kind, "simmpi", before, now(), "bytes",
                    static_cast<double>(result.size()));
  }
  auto& metrics = comm_metrics();
  metrics.collectives.increment();
  metrics.collective_wait_s.add(waited);
  return result;
}

void Comm::barrier() {
  const double cost = netsim::barrier_time(topology());
  run_collective("barrier", {}, nullptr, cost);
}

std::vector<std::byte> Comm::bcast_bytes(std::vector<std::byte> input,
                                         int root) {
  HETERO_REQUIRE(root >= 0 && root < size(), "bcast: root out of range");
  // Cost depends on the payload size, which only the root knows up front;
  // non-roots pass 0 and the runtime takes the max over ranks.
  const double cost =
      rank() == root ? netsim::bcast_time(topology(), input.size()) : 0.0;
  return run_collective(
      "bcast", std::move(input),
      [root](const std::vector<std::vector<std::byte>>& inputs) {
        return std::vector<std::vector<std::byte>>{
            inputs[static_cast<std::size_t>(root)]};
      },
      cost);
}

std::vector<double> Comm::allreduce(std::span<const double> data,
                                    ReduceOp op) {
  const auto raw = reduce_like(std::as_bytes(data), op, /*is_double=*/true);
  std::vector<double> out(raw.size() / sizeof(double));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

std::vector<std::int64_t> Comm::allreduce(std::span<const std::int64_t> data,
                                          ReduceOp op) {
  const auto raw = reduce_like(std::as_bytes(data), op, /*is_double=*/false);
  std::vector<std::int64_t> out(raw.size() / sizeof(std::int64_t));
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

double Comm::allreduce(double value, ReduceOp op) {
  return allreduce(std::span<const double>(&value, 1), op).front();
}

std::int64_t Comm::allreduce(std::int64_t value, ReduceOp op) {
  return allreduce(std::span<const std::int64_t>(&value, 1), op).front();
}

std::vector<std::byte> Comm::reduce_like(std::span<const std::byte> input,
                                         ReduceOp op, bool is_double) {
  const double cost = netsim::allreduce_time(topology(), input.size());
  std::vector<std::byte> in(input.begin(), input.end());
  return run_collective(
      "allreduce", std::move(in),
      [op, is_double](const std::vector<std::vector<std::byte>>& inputs) {
        return std::vector<std::vector<std::byte>>{
            is_double ? combine_reduce<double>(inputs, op)
                      : combine_reduce<std::int64_t>(inputs, op)};
      },
      cost);
}

std::vector<std::byte> Comm::allgatherv_bytes(std::vector<std::byte> input,
                                              std::size_t element_size) {
  const double cost = netsim::allgather_time(
      topology(), std::max<std::uint64_t>(input.size(), element_size));
  return run_collective(
      "allgatherv", std::move(input),
      [](const std::vector<std::vector<std::byte>>& inputs) {
        return std::vector<std::vector<std::byte>>{concatenate(inputs)};
      },
      cost);
}

std::vector<std::byte> Comm::gatherv_bytes(std::vector<std::byte> input,
                                           int root,
                                           std::size_t element_size) {
  HETERO_REQUIRE(root >= 0 && root < size(), "gatherv: root out of range");
  const double cost = netsim::gather_time(
      topology(), std::max<std::uint64_t>(input.size(), element_size));
  return run_collective(
      "gatherv", std::move(input),
      [root, p = size()](const std::vector<std::vector<std::byte>>& inputs) {
        std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
        out[static_cast<std::size_t>(root)] = concatenate(inputs);
        return out;
      },
      cost);
}

std::vector<std::byte> Comm::scatterv_bytes(
    const std::vector<std::vector<std::byte>>& blocks, int root) {
  HETERO_REQUIRE(root >= 0 && root < size(), "scatterv: root out of range");
  // Flatten the root's blocks with framing; everyone else sends nothing.
  std::vector<std::byte> flat;
  std::uint64_t max_block = 1;
  if (rank() == root) {
    for (const auto& b : blocks) {
      append_frame(flat, b.data(), b.size());
      max_block = std::max<std::uint64_t>(max_block, b.size());
    }
  }
  // Scatter cost mirrors the gather pattern (root serializes the sends).
  const double cost =
      rank() == root ? netsim::gather_time(topology(), max_block) : 0.0;
  const int p = size();
  return run_collective(
      "scatterv", std::move(flat),
      [root, p](const std::vector<std::vector<std::byte>>& inputs) {
        return deframe<std::byte>(inputs[static_cast<std::size_t>(root)], p);
      },
      cost);
}

void Comm::append_frame(std::vector<std::byte>& framed, const void* data,
                        std::size_t bytes) {
  const std::uint64_t len = bytes;
  const auto* lp = reinterpret_cast<const std::byte*>(&len);
  framed.insert(framed.end(), lp, lp + sizeof(len));
  const auto* dp = static_cast<const std::byte*>(data);
  framed.insert(framed.end(), dp, dp + bytes);
}

std::uint64_t Comm::read_frame(const std::vector<std::byte>& framed,
                               std::size_t& off) {
  std::uint64_t len = 0;
  HETERO_CHECK(off + sizeof(len) <= framed.size());
  std::memcpy(&len, framed.data() + off, sizeof(len));
  off += sizeof(len);
  HETERO_CHECK(off + len <= framed.size());
  return len;
}

std::vector<std::byte> Comm::alltoallv_framed(std::vector<std::byte> framed) {
  // The combine reshuffles so each rank receives, in source order, the
  // frames addressed to it, with the same framing.
  const int p = size();
  const std::uint64_t header_bytes =
      static_cast<std::uint64_t>(p) * sizeof(std::uint64_t);
  HETERO_CHECK(framed.size() >= header_bytes);
  const std::uint64_t avg_bytes = std::max<std::uint64_t>(
      1, (framed.size() - header_bytes) / static_cast<std::uint64_t>(p));
  const double cost = netsim::alltoall_time(topology(), avg_bytes);
  return run_collective(
      "alltoallv", std::move(framed),
      [p](const std::vector<std::vector<std::byte>>& inputs) {
        std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
        for (const auto& in : inputs) {
          std::size_t off = 0;
          for (auto& slot : out) {
            const std::uint64_t len = read_frame(in, off);
            append_frame(slot, in.data() + off, len);
            off += len;
          }
        }
        return out;
      },
      cost);
}

}  // namespace hetero::simmpi
