#pragma once

/// \file comm.hpp
/// Rank-local communicator handle: the API application code programs
/// against. Mirrors the MPI subset the paper's applications need — buffered
/// point-to-point send/recv plus the synchronizing collectives — with typed
/// convenience wrappers for trivially copyable element types.

#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "simmpi/runtime.hpp"

namespace hetero::simmpi {

/// Reduction operators supported by reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

class Comm;

/// Handle for a pending nonblocking receive. Sends complete immediately
/// (buffered semantics), so only receives need requests. Movable-only.
template <class T>
class RecvRequest {
 public:
  RecvRequest() = default;
  RecvRequest(Comm* comm, int source, int tag)
      : comm_(comm), source_(source), tag_(tag) {}

  RecvRequest(RecvRequest&& other) noexcept { *this = std::move(other); }
  RecvRequest& operator=(RecvRequest&& other) noexcept {
    comm_ = other.comm_;
    source_ = other.source_;
    tag_ = other.tag_;
    other.comm_ = nullptr;
    return *this;
  }
  RecvRequest(const RecvRequest&) = delete;
  RecvRequest& operator=(const RecvRequest&) = delete;

  bool valid() const { return comm_ != nullptr; }

  /// Blocks until the message arrives; consumes the request.
  std::vector<T> wait();

 private:
  Comm* comm_ = nullptr;
  int source_ = 0;
  int tag_ = 0;
};

class Comm {
 public:
  /// Rank within this communicator (group-relative for split comms).
  int rank() const { return member_; }
  int size() const { return static_cast<int>(group_->members.size()); }
  /// World rank of this process (identical to rank() on the world comm).
  int world_rank() const { return rank_; }
  bool is_world() const { return group_->id == 0; }

  const netsim::Topology& topology() const {
    return group_topo_ ? *group_topo_ : runtime_->topology();
  }

  /// MPI_Comm_split: collective over this communicator. Processes with the
  /// same `color` form a new communicator ordered by (key, world rank).
  /// Sub-communicators have isolated tag spaces and their own collectives;
  /// their ranks are group-relative.
  Comm split(int color, int key);

  /// Virtual clock of this rank; applications advance it for compute work.
  SimClock& clock() {
    return runtime_->clocks_[static_cast<std::size_t>(rank_)];
  }
  double now() const {
    return runtime_->clocks_[static_cast<std::size_t>(rank_)].time();
  }

  /// Records `seconds` of modeled local computation. When the runtime has
  /// a compute-scale hook (per-rank speed skew), the charge is multiplied
  /// by this rank's factor at the current virtual time — slow cores and
  /// noisy-neighbor windows stretch exactly the compute, never the
  /// numerics or the communication model.
  void compute(double seconds) {
    if (runtime_->compute_scale_) {
      seconds *= runtime_->compute_scale_(rank_, now());
    }
    clock().advance(seconds);
  }

  const CommStats& stats() const {
    return runtime_->stats_[static_cast<std::size_t>(rank_)];
  }

  // ---- point-to-point -----------------------------------------------------

  /// Buffered send; returns once the payload is handed to the runtime. The
  /// sender clock advances by the modeled injection overhead.
  template <class T>
  void send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(as_bytes_copy(data), dest, tag);
  }
  template <class T>
  void send(const std::vector<T>& data, int dest, int tag) {
    send(std::span<const T>(data), dest, tag);
  }

  /// Blocking receive of a message from (source, tag); returns the payload
  /// reinterpreted as T. The receiver clock advances to the modeled arrival.
  template <class T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(source, tag);
    HETERO_REQUIRE(raw.size() % sizeof(T) == 0,
                   "recv: payload size is not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    return out;
  }

  /// Blocking receive into caller-provided storage: avoids the per-message
  /// typed-vector allocation of recv() for hot exchange loops that keep a
  /// persistent buffer. Returns the element count received; `out` must be
  /// at least that large.
  template <class T>
  std::size_t recv_into(std::span<T> out, int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(source, tag);
    HETERO_REQUIRE(raw.size() % sizeof(T) == 0,
                   "recv_into: payload size is not a multiple of element "
                   "size");
    const std::size_t n = raw.size() / sizeof(T);
    HETERO_REQUIRE(n <= out.size(), "recv_into: buffer too small");
    if (n != 0) {
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    return n;
  }

  /// Nonblocking receive: returns a request to wait on later. Matching
  /// follows the same (source, tag) non-overtaking order as recv().
  template <class T>
  RecvRequest<T> irecv(int source, int tag) {
    return RecvRequest<T>(this, source, tag);
  }

  /// Combined send+receive against (possibly different) peers; safe under
  /// the buffered-send semantics and convenient for halo-style exchanges.
  template <class T>
  std::vector<T> sendrecv(std::span<const T> send_data, int dest,
                          int send_tag, int source, int recv_tag) {
    send(send_data, dest, send_tag);
    return recv<T>(source, recv_tag);
  }

  // ---- collectives (synchronizing) ----------------------------------------

  void barrier();

  /// Broadcast `data` from `root`; on non-root ranks the argument's contents
  /// are replaced.
  template <class T>
  void bcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> in;
    if (rank() == root) {
      in = as_bytes_copy(std::span<const T>(data));
    }
    const auto out = bcast_bytes(std::move(in), root);
    data.assign(out.size() / sizeof(T), T{});
    if (!data.empty()) {
      std::memcpy(data.data(), out.data(), out.size());
    }
  }

  /// Element-wise allreduce; every rank passes equally sized input.
  std::vector<double> allreduce(std::span<const double> data, ReduceOp op);
  std::vector<std::int64_t> allreduce(std::span<const std::int64_t> data,
                                      ReduceOp op);
  double allreduce(double value, ReduceOp op);
  std::int64_t allreduce(std::int64_t value, ReduceOp op);

  /// Gather equally typed (possibly differently sized) blocks; every rank
  /// receives the concatenation ordered by rank.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto out = allgatherv_bytes(as_bytes_copy(data), sizeof(T));
    std::vector<T> result(out.size() / sizeof(T));
    if (!result.empty()) {
      std::memcpy(result.data(), out.data(), out.size());
    }
    return result;
  }
  template <class T>
  std::vector<T> allgatherv(const std::vector<T>& data) {
    return allgatherv(std::span<const T>(data));
  }

  /// Gather of variable-size blocks to `root`: the root receives the
  /// concatenation ordered by rank; other ranks receive an empty vector.
  template <class T>
  std::vector<T> gatherv(std::span<const T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto out = gatherv_bytes(as_bytes_copy(data), root, sizeof(T));
    std::vector<T> result(out.size() / sizeof(T));
    if (!result.empty()) {
      std::memcpy(result.data(), out.data(), out.size());
    }
    return result;
  }
  template <class T>
  std::vector<T> gatherv(const std::vector<T>& data, int root) {
    return gatherv(std::span<const T>(data), root);
  }

  /// Scatter of per-rank blocks from `root`: rank r receives blocks[r].
  /// Only the root's `blocks` argument is read. Cost is modeled as the
  /// matching gather pattern in reverse.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& blocks,
                          int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<std::byte>> raw(
        static_cast<std::size_t>(size()));
    if (rank() == root) {
      HETERO_REQUIRE(static_cast<int>(blocks.size()) == size(),
                     "scatterv: root needs one block per rank");
      for (std::size_t d = 0; d < blocks.size(); ++d) {
        raw[d] = as_bytes_copy(std::span<const T>(blocks[d]));
      }
    }
    const auto out = scatterv_bytes(raw, root);
    std::vector<T> result(out.size() / sizeof(T));
    if (!result.empty()) {
      std::memcpy(result.data(), out.data(), out.size());
    }
    return result;
  }

  /// Personalized all-to-all: `blocks[d]` goes to rank d; returns the blocks
  /// received, indexed by source rank.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& blocks) {
    static_assert(std::is_trivially_copyable_v<T>);
    HETERO_REQUIRE(static_cast<int>(blocks.size()) == size(),
                   "alltoallv: need one block per destination rank");
    std::vector<std::byte> framed;
    for (const auto& b : blocks) {
      append_frame(framed, b.data(), b.size() * sizeof(T));
    }
    return deframe<T>(alltoallv_framed(std::move(framed)), size());
  }

  /// As above, with the blocks back to back in one buffer: block d is
  /// flat[offsets[d], offsets[d + 1]), so a caller that ships the same
  /// layout every round keeps one buffer instead of one vector per rank.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<T>& flat, const std::vector<std::size_t>& offsets) {
    static_assert(std::is_trivially_copyable_v<T>);
    HETERO_REQUIRE(static_cast<int>(offsets.size()) == size() + 1 &&
                       offsets.back() == flat.size(),
                   "alltoallv: need one block offset per destination rank "
                   "plus the end");
    std::vector<std::byte> framed;
    framed.reserve(flat.size() * sizeof(T) +
                   (offsets.size() - 1) * sizeof(std::uint64_t));
    for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
      append_frame(framed, flat.data() + offsets[d],
                   (offsets[d + 1] - offsets[d]) * sizeof(T));
    }
    return deframe<T>(alltoallv_framed(std::move(framed)), size());
  }

  // ---- byte-level primitives (exposed for tests) ---------------------------

  void send_bytes(std::vector<std::byte> payload, int dest, int tag);
  std::vector<std::byte> recv_bytes(int source, int tag);
  std::vector<std::byte> bcast_bytes(std::vector<std::byte> input, int root);
  std::vector<std::byte> allgatherv_bytes(std::vector<std::byte> input,
                                          std::size_t element_size);
  std::vector<std::byte> gatherv_bytes(std::vector<std::byte> input, int root,
                                       std::size_t element_size);
  std::vector<std::byte> scatterv_bytes(
      const std::vector<std::vector<std::byte>>& blocks, int root);

 private:
  /// Appends one [u64 length][payload] frame: the wire image in which
  /// alltoallv and scatterv ship one block per destination.
  static void append_frame(std::vector<std::byte>& framed, const void* data,
                           std::size_t bytes);

  /// Reads the frame header at `off` and moves `off` past it; the payload
  /// is [off, off + returned length).
  static std::uint64_t read_frame(const std::vector<std::byte>& framed,
                                  std::size_t& off);

  /// Splits `p` frames back into typed blocks.
  template <class T>
  static std::vector<std::vector<T>> deframe(
      const std::vector<std::byte>& framed, int p) {
    std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
    std::size_t off = 0;
    for (auto& block : out) {
      const std::uint64_t len = read_frame(framed, off);
      HETERO_CHECK(len % sizeof(T) == 0);
      block.resize(len / sizeof(T));
      if (len != 0) {
        std::memcpy(block.data(), framed.data() + off, len);
      }
      off += len;
    }
    return out;
  }

  /// alltoallv over an already framed image (one frame per destination);
  /// returns the received frames, one per source.
  std::vector<std::byte> alltoallv_framed(std::vector<std::byte> framed);

  template <class T>
  static std::vector<std::byte> as_bytes_copy(std::span<const T> data) {
    std::vector<std::byte> out(data.size_bytes());
    if (!out.empty()) {
      std::memcpy(out.data(), data.data(), data.size_bytes());
    }
    return out;
  }

  std::vector<std::byte> reduce_like(std::span<const std::byte> input,
                                     ReduceOp op, bool is_double);

  /// This communicator's synchronizing collective `kind`, entered at now():
  /// meets the other members in the group's rendezvous, advances the clock
  /// to the exit time, updates stats, and emits a `kind` trace span covering
  /// this rank's wait (if tracing). Returns this member's result.
  std::vector<std::byte> run_collective(const char* kind,
                                        std::vector<std::byte> input,
                                        const Runtime::CombineFn& combine,
                                        double cost);

  /// World rank of communicator-relative rank `r`.
  int world_of(int r) const {
    HETERO_REQUIRE(r >= 0 && r < size(), "rank out of communicator range");
    return group_->members[static_cast<std::size_t>(r)];
  }

  friend class Runtime;
  Comm(Runtime& runtime, Runtime::Group& group, int world_rank, int member)
      : runtime_(&runtime),
        group_(&group),
        rank_(world_rank),
        member_(member) {}

  Runtime* runtime_;
  Runtime::Group* group_;
  int rank_;    // world rank
  int member_;  // rank within group_
  /// Sub-communicator cost model (null on the world communicator).
  std::shared_ptr<netsim::Topology> group_topo_;
};

template <class T>
std::vector<T> RecvRequest<T>::wait() {
  HETERO_REQUIRE(comm_ != nullptr, "wait() on an empty or consumed request");
  Comm* comm = comm_;
  comm_ = nullptr;
  return comm->recv<T>(source_, tag_);
}

}  // namespace hetero::simmpi
