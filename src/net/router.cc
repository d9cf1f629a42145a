#include "net/router.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "index/rr_greedy.h"

namespace kbtim {
namespace net {
namespace {

// splitmix64 finalizer — the repo's standard stateless mixer (see
// fault_injector.cc, failure_domain.cc).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Rendezvous score of (topic, shard): each shard draws an independent
/// hash per keyword; the top-r draws are the keyword's replicas. Stable
/// under fleet resize — removing a shard remaps only its own keywords.
uint64_t RendezvousScore(TopicId topic, uint32_t shard) {
  return Mix64((static_cast<uint64_t>(topic) << 32) | (shard + 1));
}

}  // namespace

Router::Router(std::vector<ShardAddress> shards, RouterOptions options,
               IndexMeta meta)
    : shards_(std::move(shards)),
      options_(std::move(options)),
      meta_(std::move(meta)),
      breakers_(options_.breaker) {
  MutexLock lock(&mu_);
  idle_clients_.resize(shards_.size());
}

StatusOr<std::unique_ptr<Router>> Router::Create(
    std::vector<ShardAddress> shards, RouterOptions options) {
  if (shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  options.replication_factor = std::max<uint32_t>(
      1, std::min<uint32_t>(options.replication_factor,
                            static_cast<uint32_t>(shards.size())));
  // Any reachable shard can ship the meta — the fleet serves one index
  // directory (a cold standby shard is acceptable at construction time).
  Status last = Status::OK();
  for (const ShardAddress& addr : shards) {
    ShardClient client(addr.host, addr.port, options.client);
    StatusOr<IndexMeta> meta = client.FetchMeta();
    if (meta.ok()) {
      if (!meta->has_rr) {
        return Status::FailedPrecondition(
            "shard index has no RR structures (router runs RR sessions)");
      }
      return std::unique_ptr<Router>(new Router(
          std::move(shards), std::move(options), std::move(*meta)));
    }
    last = meta.status();
  }
  return Status::Unavailable("no shard reachable for meta: " +
                             last.message());
}

std::vector<uint32_t> Router::ReplicasOf(TopicId topic) const {
  std::vector<uint32_t> order(shards_.size());
  for (uint32_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [topic](uint32_t a, uint32_t b) {
    const uint64_t sa = RendezvousScore(topic, a);
    const uint64_t sb = RendezvousScore(topic, b);
    return sa != sb ? sa > sb : a < b;
  });
  order.resize(options_.replication_factor);
  return order;
}

BreakerState Router::ShardState(uint32_t shard) const {
  return breakers_.state(static_cast<TopicId>(shard));
}

std::unique_ptr<ShardClient> Router::AcquireClient(uint32_t shard) {
  {
    MutexLock lock(&mu_);
    auto& idle = idle_clients_[shard];
    if (!idle.empty()) {
      std::unique_ptr<ShardClient> client = std::move(idle.back());
      idle.pop_back();
      return client;
    }
  }
  return std::make_unique<ShardClient>(shards_[shard].host,
                                       shards_[shard].port, options_.client);
}

void Router::ReleaseClient(uint32_t shard,
                           std::unique_ptr<ShardClient> client) {
  MutexLock lock(&mu_);
  idle_clients_[shard].push_back(std::move(client));
}

void Router::LoseSession(Session& session, bool keep_keywords) {
  session.client->Disconnect();
  session.open = false;
  // One breaker verdict per lost RPC: consecutive verdicts trip the
  // shard's domain open and later assignments shed it in O(1).
  breakers_.RecordFailure(static_cast<TopicId>(session.shard));
  {
    MutexLock lock(&stats_mu_);
    ++counters_.transport_failures;
  }
  if (keep_keywords) return;
  for (Keyword* kw : session.keywords) ++kw->next_replica;
}

bool Router::OpenSessions(std::vector<Session>& sessions,
                          std::vector<uint32_t>& count) {
  uint64_t hedges = 0;
  for (Session& s : sessions) {
    s.client = AcquireClient(s.shard);
    s.received_before = s.client->received_bytes();
    // The per-attempt wire deadline: a backlogged shard sheds the open at
    // dequeue instead of serving a session the router has given up on.
    s.request.request_deadline_ms = options_.attempt_timeout_ms;
    s.client->StartCoverOpen(s.request);
    hedges += s.hedge ? 1 : 0;
  }
  {
    MutexLock lock(&stats_mu_);
    counters_.scatter_rpcs += sessions.size();
    counters_.hedged_rpcs += hedges;
  }
  bool all_open = true;
  std::vector<TopicId> dropped;
  for (Session& s : sessions) {
    bool transport_failed = false;
    dropped.clear();
    const Status opened =
        s.client->FinishCoverOpen(&dropped, &count, &transport_failed);
    if (!opened.ok()) {
      all_open = false;
      if (transport_failed) {
        LoseSession(s);
        continue;
      }
      // An application-level refusal (queue full, deadline): the shard is
      // alive, but these keywords need another replica.
      for (Keyword* kw : s.keywords) ++kw->next_replica;
      continue;
    }
    s.open = true;
    breakers_.RecordSuccess(static_cast<TopicId>(s.shard));
    for (TopicId topic : dropped) {
      const auto it =
          std::find(s.request.topics.begin(), s.request.topics.end(), topic);
      if (it == s.request.topics.end()) {  // not a topic it was sent
        LoseSession(s);
        break;
      }
      // Shard-side drop (its breaker or storage failed the topic): the
      // shard is alive, but THIS keyword needs another replica.
      ++s.keywords[it - s.request.topics.begin()]->next_replica;
    }
    all_open = all_open && dropped.empty();
  }
  return all_open;
}

bool Router::RunGreedy(std::vector<Session>& sessions, uint32_t k,
                       std::vector<uint32_t>& count, MaxCoverResult* cover) {
  bool lost = false;
  uint64_t steps = 0;
  std::vector<uint64_t> heap, selected;
  *cover = RunCelf(
      meta_.num_vertices, k, count,
      [&](VertexId v) {
        // After a loss the counts are wrong: the loop runs out its
        // remaining selections without steps and the caller restarts.
        if (lost) return;
        for (Session& s : sessions) {
          if (s.client->SendCoverStep(v).ok()) {
            ++steps;
          } else {
            LoseSession(s);
            lost = true;
          }
        }
        for (Session& s : sessions) {
          if (s.open && !s.client->RecvCoverStep(&count).ok()) {
            LoseSession(s);
            lost = true;
          }
        }
      },
      heap, selected);
  MutexLock lock(&stats_mu_);
  counters_.cover_steps += steps;
  return !lost;
}

void Router::EndSessions(std::vector<Session>& sessions) {
  for (Session& s : sessions) {
    if (s.open && !s.client->SendCoverStep(kEndCoverSession).ok()) {
      LoseSession(s, /*keep_keywords=*/true);
    }
  }
  std::vector<uint32_t> none;  // an end reply carries no decrements
  uint64_t bytes = 0;
  for (Session& s : sessions) {
    if (s.open && !s.client->RecvCoverStep(&none).ok()) {
      LoseSession(s, /*keep_keywords=*/true);
    }
    s.open = false;
    bytes += s.client->received_bytes() - s.received_before;
    ReleaseClient(s.shard, std::move(s.client));
  }
  MutexLock lock(&stats_mu_);
  counters_.response_bytes += bytes;
}

StatusOr<SeedSetResult> Router::Query(const kbtim::Query& query) {
  {
    MutexLock lock(&stats_mu_);
    ++counters_.queries;
  }
  const auto fail = [this](Status status) -> StatusOr<SeedSetResult> {
    MutexLock lock(&stats_mu_);
    ++counters_.failed_queries;
    return status;
  };

  StatusOr<QueryBudget> budget = ComputeQueryBudget(meta_, query);
  if (!budget.ok()) return fail(budget.status());

  kbtim::Query effective = query;
  QueryBudget effective_budget = std::move(*budget);
  std::vector<TopicId> dropped;
  std::unordered_map<TopicId, Keyword> keywords;  // nodes never move
  std::vector<uint32_t> count;
  MaxCoverResult cover;
  for (;;) {
    // Assign each keyword to its next ADMITTED replica, one session per
    // shard; breaker-open replicas are used up in O(1) — the fast shed,
    // no timeout paid. Zero-budget keywords carry no index mass (the
    // in-process path skips loading them too, which the byte-equality
    // contract depends on).
    std::vector<Session> sessions;
    std::vector<TopicId> exhausted;
    uint64_t sheds = 0;
    for (const auto& [topic, tw] : effective_budget.per_keyword) {
      if (tw == 0) continue;
      const auto [it, inserted] = keywords.try_emplace(topic);
      Keyword& kw = it->second;
      if (inserted) kw.replicas = ReplicasOf(topic);
      while (kw.next_replica < kw.replicas.size() &&
             !breakers_.Admit(
                 static_cast<TopicId>(kw.replicas[kw.next_replica]))) {
        ++kw.next_replica;
        ++sheds;
      }
      if (kw.next_replica >= kw.replicas.size()) {
        exhausted.push_back(topic);
        continue;
      }
      const uint32_t shard = kw.replicas[kw.next_replica];
      auto s = std::find_if(sessions.begin(), sessions.end(),
                            [shard](const Session& x) {
                              return x.shard == shard;
                            });
      if (s == sessions.end()) {
        s = sessions.emplace(sessions.end());
        s->shard = shard;
      }
      s->request.topics.push_back(topic);
      s->request.budgets.push_back(tw);
      s->keywords.push_back(&kw);
      s->hedge = s->hedge || kw.next_replica > 0;
    }
    if (sheds > 0) {
      MutexLock lock(&stats_mu_);
      counters_.breaker_sheds += sheds;
    }
    if (!exhausted.empty()) {
      // Culprit-diff degradation: drop the keywords no replica can serve
      // and recompute the budget over the survivors. The keyword set
      // strictly shrinks, and the answer is the SAME one RrIndex::Query
      // gives the reduced query.
      dropped.insert(dropped.end(), exhausted.begin(), exhausted.end());
      std::erase_if(effective.topics, [&](TopicId t) {
        return std::find(exhausted.begin(), exhausted.end(), t) !=
               exhausted.end();
      });
      if (effective.topics.empty()) {
        return fail(Status::Unavailable(
            "every query keyword was dropped (no shard could serve them)"));
      }
      StatusOr<QueryBudget> recomputed = ComputeQueryBudget(meta_, effective);
      if (!recomputed.ok()) return fail(recomputed.status());
      effective_budget = std::move(*recomputed);
      MutexLock lock(&stats_mu_);
      ++counters_.budget_recomputes;
      continue;
    }

    count.assign(meta_.num_vertices, 0);
    const bool answered = OpenSessions(sessions, count) &&
                          RunGreedy(sessions, effective.k, count, &cover);
    EndSessions(sessions);
    if (answered) break;
    // A failed attempt used up a replica of at least one keyword, and
    // replicas are finite: the restarts end.
    MutexLock lock(&stats_mu_);
    ++counters_.greedy_restarts;
  }

  SeedSetResult result = RrGreedyAnswer(effective_budget, std::move(cover));
  if (!dropped.empty()) {
    result.degraded = true;
    result.dropped_keywords = dropped;
  }
  {
    MutexLock lock(&stats_mu_);
    if (dropped.empty()) {
      ++counters_.full_answers;
    } else {
      ++counters_.degraded_answers;
      counters_.keywords_dropped += dropped.size();
    }
  }
  return result;
}

RouterStats Router::stats() const {
  RouterStats out;
  {
    MutexLock lock(&stats_mu_);
    out = counters_;
  }
  const FailureDomainStats breaker = breakers_.stats();
  out.breaker_opens = breaker.opens;
  out.breaker_probes = breaker.probes;
  out.breaker_closes = breaker.closes;
  out.breaker_rejections = breaker.rejections;
  return out;
}

}  // namespace net
}  // namespace kbtim
