#include "ibp/sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace ibp::sim {
namespace {

TEST(Engine, SingleRankAdvances) {
  Engine eng(1);
  eng.run([](Context& ctx) {
    EXPECT_EQ(ctx.now(), 0u);
    ctx.advance(ns(100));
    EXPECT_EQ(ctx.now(), ns(100));
    ctx.advance(ns(50));
    EXPECT_EQ(ctx.now(), ns(150));
  });
  EXPECT_EQ(eng.final_time(0), ns(150));
  EXPECT_EQ(eng.makespan(), ns(150));
}

TEST(Engine, RanksExecuteInVirtualTimeOrder) {
  // Rank 0 advances in big steps, rank 1 in small ones; the observed
  // interleaving must be ordered by virtual time.
  Engine eng(2);
  std::vector<std::pair<TimePs, RankId>> trace;
  eng.run([&trace](Context& ctx) {
    const TimePs step = ctx.rank() == 0 ? ns(100) : ns(30);
    for (int i = 0; i < 5; ++i) {
      ctx.advance(step);
      trace.emplace_back(ctx.now(), ctx.rank());
    }
  });
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_LE(trace[i - 1].first, trace[i].first)
        << "out-of-order execution at step " << i;
}

TEST(Engine, TieBreaksByRankId) {
  Engine eng(3);
  std::vector<RankId> order;
  eng.run([&order](Context& ctx) {
    ctx.advance(ns(10));
    order.push_back(ctx.rank());
  });
  ASSERT_EQ(order.size(), 3u);
  // All ranks start at 0; rank 0 runs first, advances to 10, then rank 1
  // runs (0 < 10), etc. After the advance each logs in rank order.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(Engine, WaitUntilDeliversAtReadyTime) {
  Engine eng(2);
  struct Mailbox {
    bool full = false;
    TimePs at = 0;
    Waker filled;
  } box;

  eng.run([&box](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(ns(500));
      box.full = true;
      box.at = ctx.now() + ns(100);  // "arrives" 100ns later
      box.filled.wake();
    } else {
      ctx.wait("mailbox", {&box.filled}, [&box]() -> std::optional<TimePs> {
        if (!box.full) return std::nullopt;
        return box.at;
      });
      EXPECT_EQ(ctx.now(), ns(600));
    }
  });
}

TEST(Engine, BlockedRankResumesNoEarlierThanItsOwnClock) {
  Engine eng(2);
  struct {
    bool ready = false;
    Waker set;
  } flag;
  eng.run([&flag](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(ns(10));
      flag.ready = true;
      flag.set.wake();
    } else {
      ctx.advance(ns(1000));  // already far ahead
      ctx.wait("flag", {&flag.set}, [&flag]() -> std::optional<TimePs> {
        if (!flag.ready) return std::nullopt;
        return ns(10);  // event happened long ago
      });
      EXPECT_EQ(ctx.now(), ns(1000));  // clock never goes backwards
    }
  });
}

TEST(Engine, DeadlockIsDetected) {
  Engine eng(2);
  std::string error;
  try {
    eng.run([](Context& ctx) {
      ctx.wait("forever", {},
               []() -> std::optional<TimePs> { return std::nullopt; });
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("virtual-time deadlock"), std::string::npos) << error;
  // Both blocked lanes are named with their clocks and wait reasons.
  EXPECT_NE(error.find("r0.t0@0"), std::string::npos) << error;
  EXPECT_NE(error.find("r1.t0@0"), std::string::npos) << error;
  EXPECT_NE(error.find("r0.t0@0 forever, r1.t0@0 forever"),
            std::string::npos)
      << error;
}

TEST(Engine, DeadlockErrorListsAtMostSixteenLanes) {
  constexpr int kRanks = 20;
  Engine eng(kRanks);
  std::string error;
  try {
    eng.run([](Context& ctx) {
      ctx.advance(ns(static_cast<std::uint64_t>(ctx.rank())));
      ctx.wait("forever", {},
               []() -> std::optional<TimePs> { return std::nullopt; });
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("r15.t0@15000"), std::string::npos) << error;
  EXPECT_NE(error.find("r15.t0@15000 forever and 4 more"), std::string::npos)
      << error;
  EXPECT_EQ(error.find("r16.t0"), std::string::npos) << error;
  EXPECT_NE(error.find(" and 4 more"), std::string::npos) << error;
}

TEST(Engine, MissingWakeFailsTheRun) {
  // Rank 0 fills rank 1's mailbox without firing the mailbox's Waker,
  // then finishes. Rank 1's cached ready time (not ready) is now stale:
  // Debug builds catch it in the per-lane wait audit; release builds
  // never re-run the ready function and end in a deadlock naming rank
  // 1's lane and its wait reason.
  Engine eng(2);
  bool full = false;
  Waker filled;  // never fired: the missing wake
  std::string error;
  try {
    eng.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.advance(ns(10));  // rank 1 blocks first
        full = true;
      } else {
        ctx.wait("mailbox", {&filled}, [&full]() -> std::optional<TimePs> {
          if (!full) return std::nullopt;
          return ns(10);
        });
      }
    });
  } catch (const SimError& e) {
    error = e.what();
  }
#ifdef NDEBUG
  EXPECT_NE(error.find("virtual-time deadlock"), std::string::npos) << error;
  EXPECT_NE(error.find("r1.t0@0 mailbox"), std::string::npos) << error;
#else
  EXPECT_NE(error.find("wait audit: r1.t0 mailbox has a stale ready time"),
            std::string::npos)
      << error;
#endif
}

TEST(Engine, FiringOneOfEightSiblingWaitsRunsOneReadyFunction) {
  // Eight tracks of one rank each wait on their own Waker; firing one
  // re-runs that lane's ready function only.
  constexpr std::size_t kTracks = 8;
  Engine eng(1);
  std::vector<TimePs> set_at(kTracks, 0);  // 0: not set yet
  std::vector<Waker> wakers(kTracks);
  std::uint64_t calls_for_one_fire = 0;
  eng.run([&](Context& ctx) {
    const auto set = [&](std::size_t k) {
      set_at[k] = ctx.now();
      wakers[k].wake();
    };
    std::vector<TrackId> kids;
    for (std::size_t k = 0; k < kTracks; ++k) {
      kids.push_back(ctx.spawn_track([&set_at, &wakers, k](Context& c) {
        const auto ready = [&set_at, k]() -> std::optional<TimePs> {
          if (set_at[k] == 0) return std::nullopt;
          return set_at[k];
        };
        c.wait("own flag", {&wakers[k]}, ready);
      }));
    }
    ctx.advance(ns(1));  // every sibling blocks at 0
    const std::uint64_t before = eng.stats().predicate_calls;
    set(3);
    ctx.advance(ns(1));  // track 4 resumes and finishes meanwhile
    calls_for_one_fire = eng.stats().predicate_calls - before;
    for (std::size_t k = 0; k < kTracks; ++k)
      if (set_at[k] == 0) set(k);
    for (TrackId t : kids) ctx.join_track(t);
  });
  EXPECT_EQ(calls_for_one_fire, 1u);
}

TEST(Engine, LaneWhoseWakersNeverFireIsEvaluatedOnce) {
  // Rank 0's lane waits for a fixed time on a Waker nobody fires while
  // a sibling track and rank 1 make a hundred decisions: its ready
  // function runs when the wait starts and never again (the Debug
  // audit's re-runs are not counted).
  Engine eng(2);
  Waker never;
  eng.run([&never](Context& ctx) {
    if (ctx.rank() == 0) {
      const TrackId t = ctx.spawn_track([](Context& c) {
        for (int i = 0; i < 50; ++i) c.advance(ns(1));
      });
      ctx.wait("timer", {&never},
               []() -> std::optional<TimePs> { return ns(100); });
      EXPECT_EQ(ctx.now(), ns(100));
      ctx.join_track(t);
    } else {
      for (int i = 0; i < 50; ++i) ctx.advance(ns(1));
    }
  });
  EXPECT_EQ(eng.stats().predicate_calls, 2u)
      << "the timer wait once, and join_track once";
}

TEST(Engine, RankErrorPropagates) {
  Engine eng(3);
  EXPECT_THROW(eng.run([](Context& ctx) {
    ctx.advance(ns(10));
    if (ctx.rank() == 1) throw SimError("rank 1 exploded");
  }),
               SimError);
}

TEST(Engine, AbortUnwindsEveryBlockedLaneOnce) {
  // Rank 2 throws while every other rank is blocked for good. run() must
  // rethrow rank 2's error (not a deadlock), and the guard on every
  // rank's stack must be destroyed exactly once.
  constexpr int kRanks = 4;
  std::vector<int> destroyed(kRanks, 0);
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  Engine eng(kRanks);
  std::string error;
  try {
    eng.run([&destroyed](Context& ctx) {
      Guard guard{&destroyed[static_cast<std::size_t>(ctx.rank())]};
      ctx.advance(ns(10));
      if (ctx.rank() == 2) {
        ctx.advance(ns(10));  // the others block first
        throw SimError("rank 2 exploded");
      }
      ctx.wait("forever", {},
               []() -> std::optional<TimePs> { return std::nullopt; });
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "rank 2 exploded");
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(destroyed[static_cast<std::size_t>(r)], 1) << "rank " << r;
}

TEST(Engine, AbortUnwindsLanesBlockedOnWakersTheUnwindDestroys) {
  // Ranks 0 and 3 each own a heap Waker and wait on the other's; rank 1
  // waits on both. Rank 2 throws, and run() unwinds ranks 0, 1, 3 in
  // that order: rank 0's Waker dies while ranks 1 and 3 still wait on
  // it, and rank 1 leaves rank 3's Waker before it dies. Under ASan a
  // wait that touched a destroyed Waker fails the test.
  Engine eng(4);
  std::vector<Waker*> owned(4, nullptr);
  std::string error;
  try {
    eng.run([&owned](Context& ctx) {
      const auto me = static_cast<std::size_t>(ctx.rank());
      std::unique_ptr<Waker> mine;
      if (me == 0 || me == 3) {
        mine = std::make_unique<Waker>();
        owned[me] = mine.get();
      }
      ctx.advance(ns(10));  // every rank has published its Waker
      const auto never = []() -> std::optional<TimePs> {
        return std::nullopt;
      };
      switch (me) {
        case 0:
          ctx.wait("rank 3's waker", {owned[3]}, never);
          break;
        case 1:
          ctx.wait("both wakers", {owned[0], owned[3]}, never);
          break;
        case 2:
          ctx.advance(ns(10));  // the others block first
          throw SimError("rank 2 exploded");
        default:
          ctx.wait("rank 0's waker", {owned[0]}, never);
      }
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "rank 2 exploded");
}

TEST(Engine, MessagePingPong) {
  // Two ranks exchange a token through a shared queue with explicit
  // delivery times; final clocks must reflect the full chain.
  Engine eng(2);
  struct Msg {
    TimePs deliver;
    int hop;
  };
  std::deque<Msg> to0, to1;
  Waker arrived0, arrived1;  // fire when to0 / to1 gains a message
  constexpr TimePs kLatency = ns(200);
  constexpr int kHops = 10;

  eng.run([&](Context& ctx) {
    auto& inbox = ctx.rank() == 0 ? to0 : to1;
    auto& outbox = ctx.rank() == 0 ? to1 : to0;
    Waker& arrived = ctx.rank() == 0 ? arrived0 : arrived1;
    Waker& sent = ctx.rank() == 0 ? arrived1 : arrived0;
    if (ctx.rank() == 0) {
      outbox.push_back({ctx.now() + kLatency, 1});
      sent.wake();
    }
    for (;;) {
      ctx.wait("inbox", {&arrived}, [&inbox]() -> std::optional<TimePs> {
        if (inbox.empty()) return std::nullopt;
        return inbox.front().deliver;
      });
      const Msg m = inbox.front();
      inbox.pop_front();
      EXPECT_GE(ctx.now(), m.deliver);
      if (m.hop >= kHops) break;
      outbox.push_back({ctx.now() + kLatency, m.hop + 1});
      sent.wake();
      if (m.hop == kHops - 1) break;  // our last message is in flight
    }
  });
  // kHops hops of kLatency each; the last receiver's clock ends at 10x.
  EXPECT_EQ(eng.makespan(), kLatency * kHops);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng(4);
    std::vector<std::pair<TimePs, RankId>> trace;
    eng.run([&trace](Context& ctx) {
      for (int i = 0; i < 20; ++i) {
        ctx.advance(ns(static_cast<std::uint64_t>(
            (ctx.rank() * 37 + i * 13) % 97 + 1)));
        trace.emplace_back(ctx.now(), ctx.rank());
      }
    });
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTracks, SpawnRunsAndJoinSyncsClocks) {
  Engine eng(1);
  eng.run([](Context& ctx) {
    EXPECT_EQ(ctx.track(), 0);
    EXPECT_EQ(ctx.live_tracks(), 1);
    TimePs child_end = 0;
    const TrackId t = ctx.spawn_track([&child_end](Context& c) {
      EXPECT_EQ(c.track(), 1);
      c.advance(us(10));
      child_end = c.now();
    });
    EXPECT_EQ(t, 1);
    ctx.advance(us(1));
    ctx.join_track(t);
    // Joining pulls the parent forward to the child's final time.
    EXPECT_EQ(child_end, us(10));
    EXPECT_EQ(ctx.now(), us(10));
    EXPECT_EQ(ctx.live_tracks(), 1);
  });
  EXPECT_EQ(eng.makespan(), us(10));
}

TEST(EngineTracks, InterleaveOrderedByTimeRankThenTrack) {
  // Two ranks x three lanes, all advancing in equal steps: every
  // admission must be ordered by (time, rank, track).
  Engine eng(2);
  struct Ev {
    TimePs t;
    RankId r;
    TrackId k;
  };
  std::vector<Ev> trace;
  eng.run([&trace](Context& ctx) {
    auto lane = [&trace](Context& c) {
      for (int i = 0; i < 4; ++i) {
        c.advance(ns(100));
        trace.push_back({c.now(), c.rank(), c.track()});
      }
    };
    const TrackId a = ctx.spawn_track(lane);
    const TrackId b = ctx.spawn_track(lane);
    lane(ctx);
    ctx.join_track(a);
    ctx.join_track(b);
  });
  ASSERT_EQ(trace.size(), 24u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const Ev& p = trace[i - 1];
    const Ev& q = trace[i];
    const bool ordered =
        p.t < q.t || (p.t == q.t &&
                      (p.r < q.r || (p.r == q.r && p.k < q.k)));
    EXPECT_TRUE(ordered) << "admission " << i << " out of order: ("
                         << p.t << "," << p.r << "," << p.k << ") then ("
                         << q.t << "," << q.r << "," << q.k << ")";
  }
}

TEST(EngineTracks, WaitUntilWakesFromSiblingTrack) {
  Engine eng(1);
  eng.run([](Context& ctx) {
    TimePs ready = 0;
    Waker set;
    const TrackId t = ctx.spawn_track([&ready, &set](Context& c) {
      c.advance(us(7));
      ready = c.now();
      set.wake();
    });
    ctx.wait("sibling", {&set}, [&ready]() -> std::optional<TimePs> {
      if (ready == 0) return std::nullopt;
      return ready;
    });
    EXPECT_EQ(ctx.now(), us(7));
    ctx.join_track(t);
  });
}

TEST(EngineTracks, AbortUnwindsSpawnedTracksBeforeTheirSpawner) {
  // A spawned track's frames may refer to its spawner's, as a server's
  // worker tracks use the server on the rank program's stack: an aborted
  // run must unwind the track while its spawner's frames still exist.
  Engine eng(2);
  std::vector<std::string> unwound;
  struct Note {
    std::vector<std::string>* log;
    const char* name;
    ~Note() { log->push_back(name); }
  };
  std::string error;
  try {
    eng.run([&unwound](Context& ctx) {
      if (ctx.rank() == 1) {
        ctx.advance(ns(10));  // rank 0's lanes block first
        throw SimError("rank 1 exploded");
      }
      const auto never = []() -> std::optional<TimePs> {
        return std::nullopt;
      };
      Note spawner{&unwound, "spawner"};
      const TrackId t = ctx.spawn_track([&unwound, &never](Context& c) {
        Note track{&unwound, "track"};
        c.wait("forever", {}, never);
      });
      ctx.join_track(t);
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "rank 1 exploded");
  EXPECT_EQ(unwound, (std::vector<std::string>{"track", "spawner"}));
}

TEST(EngineTracks, FourTrackScheduleIsDeterministic) {
  // Same-seed double run at T=4: the full (time, rank, track) admission
  // trace must be identical between runs.
  auto run_once = [] {
    Engine eng(2);
    std::vector<std::tuple<TimePs, RankId, TrackId>> trace;
    eng.run([&trace](Context& ctx) {
      std::vector<TrackId> kids;
      for (int w = 0; w < 4; ++w) {
        kids.push_back(ctx.spawn_track([w](Context& c) {
          for (int i = 0; i < 8; ++i)
            c.advance(ns(static_cast<std::uint64_t>(
                (c.rank() * 61 + w * 17 + i * 13) % 83 + 1)));
        }));
      }
      for (int i = 0; i < 8; ++i) {
        ctx.advance(ns(50));
        trace.emplace_back(ctx.now(), ctx.rank(), ctx.track());
      }
      for (TrackId t : kids) ctx.join_track(t);
      trace.emplace_back(ctx.now(), ctx.rank(), ctx.track());
    });
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTracks, TrackErrorPropagates) {
  Engine eng(2);
  std::string error;
  try {
    eng.run([](Context& ctx) {
      const TrackId t = ctx.spawn_track([](Context& c) {
        c.advance(ns(5));
        if (c.rank() == 1) throw SimError("track on rank 1 exploded");
      });
      ctx.join_track(t);
    });
  } catch (const SimError& e) {
    error = e.what();
  }
  EXPECT_EQ(error, "track on rank 1 exploded");
}

TEST(Engine, ThousandsOfRanks) {
  // Each rank advances, publishes its clock, then waits for its right
  // neighbour's: every rank ends at max(own, neighbour's) publish time.
  constexpr int kRanks = 4096;
  std::vector<std::optional<TimePs>> published(kRanks);
  std::vector<Waker> publish(kRanks);
  Engine eng(kRanks);
  eng.run([&published, &publish](Context& ctx) {
    const auto me = static_cast<std::size_t>(ctx.rank());
    ctx.advance(ns(me % 7 + 1));
    published[me] = ctx.now();
    publish[me].wake();
    const auto right = (me + 1) % kRanks;
    ctx.wait("right neighbour", {&publish[right]},
             [&published, right] { return published[right]; });
  });
  const auto publish_time = [](int r) {
    return ns(static_cast<std::uint64_t>(r % 7 + 1));
  };
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(eng.final_time(r),
              std::max(publish_time(r), publish_time((r + 1) % kRanks)))
        << "rank " << r;
}

// Recurses `depth` frames of about 1 KiB each; the volatile buffer keeps
// every frame's stack use.
std::uint64_t recurse(int depth) {
  volatile std::uint8_t frame[1024];
  frame[0] = static_cast<std::uint8_t>(depth);
  frame[sizeof frame - 1] = frame[0];
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[sizeof frame - 1];
}

TEST(Engine, LaneRecursesThroughAMebibyteOfStack) {
  constexpr int kDepth = 1024;
  std::uint64_t sum = 0;
  Engine eng(2);
  eng.run([&sum](Context& ctx) {
    ctx.advance(ns(1));
    if (ctx.rank() == 1) sum = recurse(kDepth);
    ctx.advance(ns(1));
  });
  std::uint64_t expect = 0;
  for (int d = 0; d <= kDepth; ++d) expect += static_cast<std::uint8_t>(d);
  EXPECT_EQ(sum, expect);
}

TEST(Engine, SleepUntil) {
  Engine eng(1);
  eng.run([](Context& ctx) {
    ctx.sleep_until(us(5));
    EXPECT_EQ(ctx.now(), us(5));
    ctx.sleep_until(us(3));  // in the past: no-op
    EXPECT_EQ(ctx.now(), us(5));
  });
}

TEST(Engine, StatsCountDecisionsSwitchesAndPredicateCalls) {
  {
    // Run, three advances and the finish each decide. A lane still at the
    // front keeps running, so the only switches are into it and back.
    Engine eng(1);
    eng.run([](Context& ctx) {
      for (int i = 0; i < 3; ++i) ctx.advance(ns(1));
    });
    const Engine::Stats s = eng.stats();
    EXPECT_EQ(s.decisions, 5u);
    EXPECT_EQ(s.switches, 2u);
    EXPECT_EQ(s.predicate_calls, 0u);
  }
  {
    // Rank 0 blocks (ready function call 1) and hands over to rank 1,
    // which sets the flag at 10 ns and fires its Waker (call 2, ready)
    // as it finishes; rank 0 resumes, finishes, and the run returns.
    Engine eng(2);
    bool set = false;
    Waker fired;
    eng.run([&set, &fired](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.wait("flag", {&fired}, [&set]() -> std::optional<TimePs> {
          if (!set) return std::nullopt;
          return ns(10);
        });
        EXPECT_EQ(ctx.now(), ns(10));
      } else {
        ctx.advance(ns(10));
        set = true;
        fired.wake();
      }
    });
    const Engine::Stats s = eng.stats();
    EXPECT_EQ(s.decisions, 5u);
    EXPECT_EQ(s.switches, 4u);
    EXPECT_EQ(s.predicate_calls, 2u);
  }
}

TEST(Engine, LanesKeepTheirOwnRoundingMode) {
  // Rank 0 rounds upward; rank 1, which interleaves with it, and the host
  // keep rounding to nearest.
  Engine eng(2);
  eng.run([](Context& ctx) {
    const int mode = ctx.rank() == 0 ? FE_UPWARD : FE_TONEAREST;
    if (ctx.rank() == 0) std::fesetround(FE_UPWARD);
    for (int i = 0; i < 4; ++i) {
      ctx.advance(ns(1));
      EXPECT_EQ(std::fegetround(), mode)
          << "rank " << ctx.rank() << ", step " << i;
    }
  });
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

#ifdef __SANITIZE_ADDRESS__
TEST(EngineDeathTest, AsanSeesOverflowInASuspendedLaneFrame) {
  // The child keeps `local` on the lane's own stack (no fake stack), where
  // the frame's redzones must survive the switches that suspend it.
  setenv("ASAN_OPTIONS", "detect_leaks=0:detect_stack_use_after_return=0",
         1);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Engine eng(2);
        eng.run([](Context& ctx) {
          char local[16];
          std::memset(local, 0, sizeof local);
          ctx.advance(ns(1));
          ctx.advance(ns(1));
          if (ctx.rank() == 1) {
            // Out of UBSan's sight: only ASan's shadow can catch it.
            char* volatile p = local;
            p[sizeof local] = 1;
          }
        });
      },
      "stack-buffer-overflow");
}
#endif

}  // namespace
}  // namespace ibp::sim
