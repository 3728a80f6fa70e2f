#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace st::sim {
namespace {

using namespace st::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::zero() + 30_ms, [&] { fired.push_back(3); });
  q.push(Time::zero() + 10_ms, [&] { fired.push_back(1); });
  q.push(Time::zero() + 20_ms, [&] { fired.push_back(2); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::zero() + 5_ms;
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::zero() + 1_ms, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(Time::zero(), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> fired;
  const EventId first = q.push(Time::zero() + 1_ms, [&] { fired.push_back(1); });
  q.push(Time::zero() + 2_ms, [&] { fired.push_back(2); });
  q.cancel(first);
  EXPECT_EQ(q.next_time(), Time::zero() + 2_ms);
  q.pop().fn();
  EXPECT_EQ(fired, std::vector<int>{2});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(Time::zero(), [] {});
  q.push(Time::zero() + 1_ms, [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, ClearRemovesEverything) {
  EventQueue q;
  q.push(Time::zero(), [] {});
  q.push(Time::zero() + 1_ms, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0U);
}

TEST(EventQueue, EntryCarriesScheduledTime) {
  EventQueue q;
  q.push(Time::zero() + 7_ms, [] {});
  const EventQueue::Entry e = q.pop();
  EXPECT_EQ(e.when, Time::zero() + 7_ms);
}

TEST(EventQueue, IdsAreNeverZero) {
  EventQueue q;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_NE(q.push(Time::zero() + Duration::milliseconds(i), [] {}), 0U);
    }
    while (!q.empty()) {
      EXPECT_NE(q.pop().id, 0U);
    }
  }
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, StaleIdOfAReusedSlotDoesNotCancel) {
  EventQueue q;
  const EventId fired = q.push(Time::zero(), [] {});
  (void)q.pop();
  const EventId cancelled = q.push(Time::zero(), [] {});
  EXPECT_TRUE(q.cancel(cancelled));
  // Both slots were released; this push reuses one of them.
  bool ran = false;
  const EventId live = q.push(Time::zero() + 1_ms, [&] { ran = true; });
  EXPECT_NE(live, fired);
  EXPECT_NE(live, cancelled);
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.size(), 1U);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, StaleIdAfterClearDoesNotCancel) {
  EventQueue q;
  const EventId before = q.push(Time::zero(), [] {});
  q.clear();
  q.push(Time::zero(), [] {});
  EXPECT_FALSE(q.cancel(before));
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, CancelReleasesTheCallbackAtOnce) {
  EventQueue q;
  auto held = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = held;
  const EventId id = q.push(Time::zero() + 1_ms, [held] { (void)*held; });
  q.push(Time::zero() + 2_ms, [] {});
  held.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(id));
  // The heap entry is still there (lazy cancel) but the capture is gone.
  EXPECT_TRUE(watch.expired());
}

/// Seeded random push/cancel/pop/clear against an ordered-map model keyed
/// by (time, scheduling order): pop order, size() and every cancel()
/// result must agree.
TEST(EventQueue, MatchesOrderedMapModel) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  EventQueue q;
  std::map<Key, int> model;           // pending events -> payload
  std::map<EventId, Key> model_keys;  // ids still pending in the model
  std::vector<EventId> issued;        // every id ever returned
  std::uint64_t seq = 0;
  int next_payload = 0;
  int fired_payload = -1;
  Rng rng(15);
  for (int step = 0; step < 200'000; ++step) {
    const double op = rng.uniform();
    if (op < 0.45) {
      // Few distinct times, so same-time ties are common.
      const auto when_ns = static_cast<std::int64_t>(rng.uniform(0.0, 50.0));
      const int payload = next_payload++;
      const EventId id = q.push(Time::from_ns(when_ns),
                                [&fired_payload, payload] {
                                  fired_payload = payload;
                                });
      ASSERT_NE(id, 0U);
      ASSERT_FALSE(model_keys.contains(id));
      const Key key{when_ns, seq++};
      model.emplace(key, payload);
      model_keys.emplace(id, key);
      issued.push_back(id);
    } else if (op < 0.70) {
      if (issued.empty()) {
        continue;
      }
      const EventId id = issued[rng.uniform_index(issued.size())];
      const auto it = model_keys.find(id);
      const bool expected = it != model_keys.end();
      if (expected) {
        model.erase(it->second);
        model_keys.erase(it);
      }
      ASSERT_EQ(q.cancel(id), expected) << "step " << step;
    } else if (op < 0.9995) {
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) {
        continue;
      }
      const auto head = model.begin();
      ASSERT_EQ(q.next_time(), Time::from_ns(head->first.first));
      EventQueue::Entry entry = q.pop();
      ASSERT_EQ(entry.when, Time::from_ns(head->first.first));
      entry.fn();
      ASSERT_EQ(fired_payload, head->second) << "step " << step;
      ASSERT_EQ(model_keys.at(entry.id), head->first);
      model_keys.erase(entry.id);
      model.erase(head);
    } else {
      q.clear();
      model.clear();
      model_keys.clear();
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
  }
}

}  // namespace
}  // namespace st::sim
