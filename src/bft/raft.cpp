#include "bft/raft.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace decentnet::bft {

namespace rm = raft_msg;

RaftNode::RaftNode(net::Network& net, net::NodeId addr, std::size_t index,
                   RaftConfig config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      index_(index),
      config_(config),
      m_elections_(net.metrics().counter("bft/raft_elections")),
      m_entries_applied_(net.metrics().counter("bft/raft_entries_applied")),
      m_leader_changes_(net.metrics().counter("bft/raft_leader_changes")),
      rng_(net.simulator().rng().fork(addr.value ^ 0x4AF7ull)),
      election_timer_(
          net.simulator(),
          [this] {
            if (!crashed_ && role_ != Role::Leader) become_candidate();
          },
          "raft/election") {
  net_.attach(addr_, this);
}

RaftNode::~RaftNode() { net_.detach(addr_); }

void RaftNode::set_group(std::vector<net::NodeId> replicas) {
  // Votes are tallied in a 64-bit mask indexed by replica position.
  if (replicas.size() > kMaxGroupSize || index_ >= replicas.size()) {
    throw std::invalid_argument(
        "RaftNode::set_group: group of " + std::to_string(replicas.size()) +
        " replicas must hold this node's index " + std::to_string(index_) +
        " and at most " + std::to_string(kMaxGroupSize) + " replicas");
  }
  group_ = std::move(replicas);
  next_index_.assign(group_.size(), 1);
  match_index_.assign(group_.size(), 0);
  append_inflight_.assign(group_.size(), false);
  append_seq_.assign(group_.size(), 0);
}

void RaftNode::start() { reset_election_timer(); }

void RaftNode::reset_election_timer() {
  // Backoff widens only the window's upper edge; the minimum stays put so a
  // backed-off node still reacts promptly once heartbeats resume.
  const std::uint64_t widen =
      std::min<std::uint64_t>(std::uint64_t{1} << election_backoff_, 8);
  const sim::SimDuration span =
      (config_.election_timeout_max - config_.election_timeout_min) *
      static_cast<sim::SimDuration>(widen);
  const sim::SimDuration timeout = rng_.uniform_int(
      config_.election_timeout_min, config_.election_timeout_min + span);
  election_timer_.arm(timeout);
}

void RaftNode::become_follower(std::uint64_t term) {
  if (term > term_) {
    term_ = term;
    voted_for_.reset();
  }
  role_ = Role::Follower;
  election_backoff_ = 0;
  heartbeat_timer_.cancel();
  reset_election_timer();
}

void RaftNode::become_candidate() {
  // A candidacy that times out into another candidacy made no progress:
  // back off so isolated or split-vote nodes stop thrashing terms.
  if (role_ == Role::Candidate && election_backoff_ < 3) ++election_backoff_;
  role_ = Role::Candidate;
  m_elections_.add();
  ++term_;
  voted_for_ = index_;
  vote_mask_ = std::uint64_t{1} << index_;
  reset_election_timer();
  rm::RequestVote rv{term_, index_, log_.size(), last_log_term()};
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (i != index_) net_.send(addr_, group_[i], rv, config_.message_bytes);
  }
  if (group_.size() == 1) become_leader();
}

void RaftNode::become_leader() {
  role_ = Role::Leader;
  election_backoff_ = 0;
  m_leader_changes_.add();
  election_timer_.cancel();
  next_index_.assign(group_.size(), log_.size() + 1);
  match_index_.assign(group_.size(), 0);
  match_index_[index_] = log_.size();
  append_inflight_.assign(group_.size(), false);
  broadcast_heartbeats();
  heartbeat_timer_ = sim_.schedule_periodic(
      config_.heartbeat_interval, config_.heartbeat_interval, [this] {
        if (!crashed_ && role_ == Role::Leader) broadcast_heartbeats();
      });
}

void RaftNode::broadcast_heartbeats() {
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (i != index_) send_append(i);
  }
}

void RaftNode::send_append(std::size_t peer) {
  append_inflight_[peer] = true;
  rm::AppendEntries ae;
  ae.seq = ++append_seq_[peer];
  ae.term = term_;
  ae.leader = index_;
  const std::uint64_t next = next_index_[peer];
  ae.prev_log_index = next - 1;
  ae.prev_log_term =
      ae.prev_log_index == 0 ? 0 : log_[ae.prev_log_index - 1].term;
  const std::uint64_t available = log_.size() >= next ? log_.size() - next + 1 : 0;
  const std::uint64_t count =
      std::min<std::uint64_t>(available, config_.max_entries_per_append);
  for (std::uint64_t i = 0; i < count; ++i) {
    ae.entries.push_back(log_[next - 1 + i]);
  }
  ae.leader_commit = commit_index_;
  std::size_t bytes = config_.message_bytes;
  for (const auto& e : ae.entries) bytes += e.cmd.wire_bytes;
  net_.send(addr_, group_[peer], std::move(ae), bytes);
}

bool RaftNode::propose(Command cmd) {
  if (crashed_ || role_ != Role::Leader) return false;
  log_.push_back(rm::LogEntry{term_, std::move(cmd)});
  match_index_[index_] = log_.size();
  advance_commit();  // a single-node cluster is its own majority
  // Ship to idle followers; busy ones pick the entry up when their
  // in-flight append is acknowledged.
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (i != index_ && !append_inflight_[i]) send_append(i);
  }
  return true;
}

void RaftNode::advance_commit() {
  if (role_ != Role::Leader) return;
  // Find the highest index replicated on a majority with an entry from the
  // current term.
  std::vector<std::uint64_t> matches = match_index_;
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const std::uint64_t majority_index = matches[group_.size() / 2];
  if (majority_index > commit_index_ && majority_index >= 1 &&
      log_[majority_index - 1].term == term_) {
    commit_index_ = majority_index;
    apply_committed();
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    m_entries_applied_.add();
    const rm::LogEntry& entry = log_[last_applied_ - 1];
    if (commit_hook_) commit_hook_(last_applied_, entry.cmd);
    if (role_ == Role::Leader) {
      const auto it = client_addrs_.find(entry.cmd.client);
      if (it != client_addrs_.end()) {
        net_.send(addr_, it->second,
                  rm::ClientReply{entry.cmd.id, entry.cmd.client, true, index_},
                  config_.message_bytes);
      }
    }
  }
}

void RaftNode::crash() {
  crashed_ = true;
  election_timer_.cancel();
  heartbeat_timer_.cancel();
  net_.detach(addr_);
}

void RaftNode::restart() {
  crashed_ = false;
  // Volatile state resets; persistent state (term, vote, log) survives.
  role_ = Role::Follower;
  vote_mask_ = 0;
  election_backoff_ = 0;
  commit_index_ = std::min<std::uint64_t>(commit_index_, log_.size());
  net_.attach(addr_, this);
  reset_election_timer();
}

void RaftNode::handle_message(const net::Message& msg) {
  if (crashed_) return;
  if (msg.is<rm::RequestVote>()) {
    const auto& rv = net::payload_as<rm::RequestVote>(msg);
    if (rv.term > term_) become_follower(rv.term);
    bool grant = false;
    if (rv.term == term_ && (!voted_for_ || *voted_for_ == rv.candidate)) {
      // Candidate's log must be at least as up to date as ours.
      const bool up_to_date =
          rv.last_log_term > last_log_term() ||
          (rv.last_log_term == last_log_term() &&
           rv.last_log_index >= log_.size());
      if (up_to_date) {
        grant = true;
        voted_for_ = rv.candidate;
        reset_election_timer();
      }
    }
    net_.send(addr_, msg.from, rm::VoteReply{term_, index_, grant},
              config_.message_bytes);
    return;
  }
  if (msg.is<rm::VoteReply>()) {
    const auto& vr = net::payload_as<rm::VoteReply>(msg);
    if (vr.term > term_) {
      become_follower(vr.term);
      return;
    }
    if (role_ != Role::Candidate || vr.term != term_ || !vr.granted) return;
    // Dedup by voter: the network may duplicate a granted reply, and one
    // voter must never count as two.
    vote_mask_ |= std::uint64_t{1} << vr.voter;
    if (static_cast<std::size_t>(std::popcount(vote_mask_)) >
        group_.size() / 2) {
      become_leader();
    }
    return;
  }
  if (msg.is<rm::AppendEntries>()) {
    const auto& ae = net::payload_as<rm::AppendEntries>(msg);
    if (ae.term > term_ ||
        (ae.term == term_ && role_ == Role::Candidate)) {
      become_follower(ae.term);
    }
    rm::AppendReply reply;
    reply.term = term_;
    reply.follower = index_;
    reply.success = false;
    reply.match_index = 0;
    reply.seq = ae.seq;
    if (ae.term == term_) {
      reset_election_timer();
      // Consistency check.
      const bool prev_ok =
          ae.prev_log_index == 0 ||
          (ae.prev_log_index <= log_.size() &&
           log_[ae.prev_log_index - 1].term == ae.prev_log_term);
      if (prev_ok) {
        // Append/overwrite entries.
        std::uint64_t idx = ae.prev_log_index;
        for (const rm::LogEntry& e : ae.entries) {
          ++idx;
          if (idx <= log_.size()) {
            if (log_[idx - 1].term != e.term) {
              log_.resize(idx - 1);
              log_.push_back(e);
            }
          } else {
            log_.push_back(e);
          }
        }
        reply.success = true;
        reply.match_index = ae.prev_log_index + ae.entries.size();
        if (ae.leader_commit > commit_index_) {
          commit_index_ = std::min<std::uint64_t>(ae.leader_commit,
                                                  log_.size());
          apply_committed();
        }
      }
    }
    net_.send(addr_, msg.from, reply, config_.message_bytes);
    return;
  }
  if (msg.is<rm::AppendReply>()) {
    const auto& ar = net::payload_as<rm::AppendReply>(msg);
    if (ar.term > term_) {
      become_follower(ar.term);
      return;
    }
    if (role_ != Role::Leader || ar.term != term_) return;
    // Consume at most one reply per send: only the outstanding sequence
    // number counts. Duplicated or superseded replies are dropped, which
    // caps the reply->resend branching factor at 1 under duplication.
    if (!append_inflight_[ar.follower] || ar.seq != append_seq_[ar.follower]) {
      return;
    }
    append_inflight_[ar.follower] = false;
    if (ar.success) {
      match_index_[ar.follower] =
          std::max(match_index_[ar.follower], ar.match_index);
      next_index_[ar.follower] = match_index_[ar.follower] + 1;
      advance_commit();
      // Keep streaming if the follower is still behind.
      if (next_index_[ar.follower] <= log_.size()) send_append(ar.follower);
    } else {
      if (next_index_[ar.follower] > 1) --next_index_[ar.follower];
      send_append(ar.follower);
    }
    return;
  }
  if (msg.is<rm::ClientPropose>()) {
    const Command& cmd = net::payload_as<rm::ClientPropose>(msg).cmd;
    client_addrs_[cmd.client] = msg.from;
    if (role_ == Role::Leader) {
      propose(cmd);
    } else {
      net_.send(addr_, msg.from,
                rm::ClientReply{cmd.id, cmd.client, false,
                                voted_for_.value_or(0)},
                config_.message_bytes);
    }
    return;
  }
}

}  // namespace decentnet::bft
