// Engine stress and scheduling-invariant tests: random communication
// graphs over shared queues must stay deterministic, causally ordered,
// and deadlock-free whenever a matching event eventually appears.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "ibp/common/rng.hpp"
#include "ibp/sim/engine.hpp"

namespace ibp::sim {
namespace {

struct Mailboxes {
  explicit Mailboxes(int n)
      : q(static_cast<std::size_t>(n)), arrived(static_cast<std::size_t>(n)) {}
  struct Msg {
    TimePs deliver;
    int payload;
  };
  std::vector<std::deque<Msg>> q;
  std::vector<Waker> arrived;  // arrived[r] fires when q[r] gains a message
};

TEST(EngineStress, RandomTrafficIsDeterministicAndCausal) {
  constexpr int kRanks = 8;
  constexpr int kMsgsPerRank = 40;
  constexpr TimePs kLatency = ns(700);

  auto run_once = [] {
    Engine eng(kRanks);
    Mailboxes mail(kRanks);
    std::vector<int> received_sum(kRanks, 0);
    std::vector<std::pair<TimePs, int>> trace;

    eng.run([&](Context& ctx) {
      Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank()));
      int sent = 0, got = 0;
      // Each rank alternates sends to random peers with receives until it
      // has sent and received its quota (the global message count is
      // kRanks * kMsgsPerRank each way by symmetry of the send pattern —
      // every rank sends to rank (r+1)%n a fixed number of times).
      while (sent < kMsgsPerRank || got < kMsgsPerRank) {
        if (sent < kMsgsPerRank) {
          ctx.advance(ns(rng.next_in(50, 500)));
          const int dst = (ctx.rank() + 1) % kRanks;
          mail.q[dst].push_back({ctx.now() + kLatency, sent});
          mail.arrived[dst].wake();
          ++sent;
        }
        if (got < kMsgsPerRank) {
          auto& inbox = mail.q[ctx.rank()];
          const auto ready = [&inbox]() -> std::optional<TimePs> {
            if (inbox.empty()) return std::nullopt;
            return inbox.front().deliver;
          };
          ctx.wait("inbox", {&mail.arrived[ctx.rank()]}, ready);
          const auto m = inbox.front();
          inbox.pop_front();
          EXPECT_GE(ctx.now(), m.deliver) << "delivered before its time";
          received_sum[ctx.rank()] += m.payload;
          trace.emplace_back(ctx.now(), ctx.rank());
          ++got;
        }
      }
    });

    // Causality: the observation trace is sorted by virtual time.
    for (std::size_t i = 1; i < trace.size(); ++i)
      EXPECT_LE(trace[i - 1].first, trace[i].first);
    // Every rank got messages 0..kMsgsPerRank-1 exactly once.
    const int expect = kMsgsPerRank * (kMsgsPerRank - 1) / 2;
    for (int r = 0; r < kRanks; ++r) EXPECT_EQ(received_sum[r], expect);
    return std::make_pair(trace, eng.makespan());
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first) << "nondeterministic schedule";
  EXPECT_EQ(a.second, b.second);
}

TEST(EngineStress, ManyRanksBarrierChain) {
  constexpr int kRanks = 16;
  Engine eng(kRanks);
  // Dissemination-style barrier implemented on raw shared state.
  std::vector<std::map<int, TimePs>> flags(kRanks);
  std::vector<Waker> raised(kRanks);  // raised[r] fires when flags[r] grows
  eng.run([&](Context& ctx) {
    for (int round = 0; round < 20; ++round) {
      for (int k = 1; k < kRanks; k <<= 1) {
        const int dst = (ctx.rank() + k) % kRanks;
        const int key = round * 100 + k;
        flags[dst][key] = ctx.now() + ns(300);
        raised[dst].wake();
        auto& mine = flags[ctx.rank()];
        const auto ready = [&mine, key]() -> std::optional<TimePs> {
          auto it = mine.find(key);
          if (it == mine.end()) return std::nullopt;
          return it->second;
        };
        ctx.wait("flag", {&raised[ctx.rank()]}, ready);
      }
      ctx.advance(ns(static_cast<std::uint64_t>(ctx.rank() + 1) * 10));
    }
  });
  EXPECT_GT(eng.makespan(), 0u);
}

TEST(EngineStress, FinishedRanksDoNotBlockOthers) {
  Engine eng(4);
  struct {
    bool flag = false;
    Waker set;
  } shared;
  eng.run([&](Context& ctx) {
    if (ctx.rank() < 3) {
      ctx.advance(ns(10 * static_cast<std::uint64_t>(ctx.rank() + 1)));
      if (ctx.rank() == 2) {
        shared.flag = true;
        shared.set.wake();
      }
      return;  // finish early
    }
    ctx.wait("flag", {&shared.set}, [&]() -> std::optional<TimePs> {
      if (!shared.flag) return std::nullopt;
      return ns(30);
    });
    EXPECT_EQ(ctx.now(), ns(30));
  });
}

TEST(EngineStress, ZeroAdvanceYieldIsFair) {
  Engine eng(3);
  std::vector<int> order;
  eng.run([&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      order.push_back(ctx.rank());
      ctx.yield();
    }
  });
  // At equal time, rank order round-robins deterministically: the zero
  // advance keeps time equal, so the lowest rank always resumes first and
  // runs to its next yield.
  ASSERT_EQ(order.size(), 9u);
  const std::vector<int> expect{0, 0, 0, 1, 1, 1, 2, 2, 2};
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace ibp::sim
