// Raft consensus (Ongaro & Ousterhout): the crash-fault-tolerant ordering
// option in permissioned stacks (Fabric's CFT orderer). Leader election with
// randomized timeouts, log replication via AppendEntries, majority commit,
// and crash/restart support.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bft/rsm.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace decentnet::bft {

struct RaftConfig {
  sim::SimDuration election_timeout_min = sim::millis(150);
  sim::SimDuration election_timeout_max = sim::millis(300);
  sim::SimDuration heartbeat_interval = sim::millis(50);
  std::size_t max_entries_per_append = 64;
  std::size_t message_bytes = 64;
};

namespace raft_msg {
struct LogEntry {
  std::uint64_t term = 0;
  Command cmd;
};
struct RequestVote {
  std::uint64_t term;
  std::size_t candidate;
  std::uint64_t last_log_index;
  std::uint64_t last_log_term;
};
struct VoteReply {
  std::uint64_t term;
  std::size_t voter;
  bool granted;
};
struct AppendEntries {
  std::uint64_t term;
  std::size_t leader;
  std::uint64_t prev_log_index;
  std::uint64_t prev_log_term;
  std::vector<LogEntry> entries;
  std::uint64_t leader_commit;
  std::uint64_t seq = 0;  // per-follower send counter, echoed in the reply
};
struct AppendReply {
  std::uint64_t term;
  std::size_t follower;
  bool success;
  std::uint64_t match_index;  // on success: last replicated index
  std::uint64_t seq = 0;      // echo of AppendEntries::seq
};
struct ClientPropose {
  Command cmd;
};
struct ClientReply {
  std::uint64_t cmd_id;
  std::uint64_t client;
  bool committed;
  std::size_t leader_hint;
};
}  // namespace raft_msg

class RaftNode final : public net::Host {
 public:
  enum class Role { Follower, Candidate, Leader };

  RaftNode(net::Network& net, net::NodeId addr, std::size_t index,
           RaftConfig config);
  ~RaftNode() override;

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Largest group set_group() accepts (votes are tallied in a 64-bit mask).
  static constexpr std::size_t kMaxGroupSize = 64;

  /// Set the replica addresses, this node's included at index(). Throws
  /// std::invalid_argument past kMaxGroupSize replicas or when index() is
  /// out of range.
  void set_group(std::vector<net::NodeId> replicas);
  /// Begin the follower timer (call after set_group on every node).
  void start();

  std::size_t index() const { return index_; }
  net::NodeId addr() const { return addr_; }
  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::Leader && !crashed_; }
  std::uint64_t term() const { return term_; }
  std::uint64_t commit_index() const { return commit_index_; }
  std::uint64_t log_size() const { return log_.size(); }

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Propose directly on this node; returns false unless it is the leader.
  bool propose(Command cmd);

  /// Crash-stop and restart (volatile state reset, log retained — models a
  /// disk-backed node rebooting).
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  void handle_message(const net::Message& msg) override;

 private:
  void reset_election_timer();
  void become_follower(std::uint64_t term);
  void become_candidate();
  void become_leader();
  void broadcast_heartbeats();
  void send_append(std::size_t peer);
  void advance_commit();
  void apply_committed();
  std::uint64_t last_log_term() const {
    return log_.empty() ? 0 : log_.back().term;
  }

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  std::size_t index_;
  RaftConfig config_;
  // Experiment-scoped metric handles (aggregated across all nodes).
  sim::Counter& m_elections_;
  sim::Counter& m_entries_applied_;
  sim::Counter& m_leader_changes_;
  sim::Rng rng_;
  std::vector<net::NodeId> group_;
  bool crashed_ = false;

  Role role_ = Role::Follower;
  std::uint64_t term_ = 0;
  std::optional<std::size_t> voted_for_;
  std::vector<raft_msg::LogEntry> log_;  // 1-based indexing via helpers
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;

  // Leader state.
  std::vector<std::uint64_t> next_index_;
  std::vector<std::uint64_t> match_index_;
  // One outstanding AppendEntries per follower (pipelining-lite): proposals
  // piggyback on the in-flight stream instead of re-broadcasting overlapping
  // entries; the heartbeat timer provides liveness if a reply is lost.
  // Each append carries a per-follower sequence number and only the reply
  // matching the outstanding one is consumed. Without that gate a network
  // that duplicates messages turns the reply-driven stream into a
  // self-amplifying loop: one append averages (1+p)^2 delivered replies,
  // each spawning a fresh append — branching factor > 1 and the event
  // queue grows without bound inside a fixed sim-time window.
  std::vector<bool> append_inflight_;
  std::vector<std::uint64_t> append_seq_;

  // Candidate state. Votes are deduplicated by voter index: a duplicated
  // VoteReply must not count twice or a minority candidate wins the term.
  std::uint64_t vote_mask_ = 0;
  // Split-vote backoff: each candidacy that times out without resolution
  // doubles the randomized-timeout window (capped at 8x), de-synchronizing
  // repeat candidates under partitions; any progress (a leader heard from,
  // an election won) resets it.
  std::uint32_t election_backoff_ = 0;

  // Reset by every AppendEntries, so it is a re-armable Timer: a reset costs
  // a sequence number, not a heap push now and a tombstone pop later.
  sim::Timer election_timer_;
  sim::EventHandle heartbeat_timer_;
  CommitHook commit_hook_;
  // client id -> address, for replies on commit.
  std::unordered_map<std::uint64_t, net::NodeId> client_addrs_;
};

}  // namespace decentnet::bft
