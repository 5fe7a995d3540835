// The precompiled dispatch index (DESIGN.md "Concurrent dispatch fast
// path"): invalidation on event definition and class registration, negative
// caching, Install-failure atomicity, and Emit's reentrant-sink hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/symbol.h"
#include "detector/local_detector.h"
#include "oodb/schema.h"

namespace sentinel::detector {
namespace {

class RecordingSink : public EventSink {
 public:
  void OnEvent(const Occurrence& occurrence, ParamContext) override {
    events.push_back(occurrence.event_name);
  }
  std::vector<std::string> events;
};

std::shared_ptr<const ParamList> NoParams() {
  return std::make_shared<ParamList>();
}

// Declaring a new primitive event AFTER a (class, method) key has been
// routed (and therefore compiled into the index) must invalidate the index:
// subsequent notifications fire the new event.
TEST(DispatchIndexTest, EventDefinedAfterRoutingFires) {
  LocalEventDetector detector;
  RecordingSink sink;
  ASSERT_TRUE(detector
                  .DefinePrimitive("e1", "Stock", EventModifier::kEnd,
                                   "void f()")
                  .ok());
  ASSERT_TRUE(detector.Subscribe("e1", &sink, ParamContext::kRecent).ok());
  // Compile the key into the index (several notifications so the memo and
  // the published index are both warm).
  for (int i = 0; i < 3; ++i) {
    detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(),
                    1);
  }
  ASSERT_EQ(sink.events.size(), 3u);

  // A second event on the same key, declared after the key went hot.
  ASSERT_TRUE(detector
                  .DefinePrimitive("e2", "Stock", EventModifier::kEnd,
                                   "void f()")
                  .ok());
  ASSERT_TRUE(detector.Subscribe("e2", &sink, ParamContext::kRecent).ok());
  sink.events.clear();
  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  EXPECT_EQ(sink.events.size(), 2u);
  EXPECT_NE(std::find(sink.events.begin(), sink.events.end(), "e1"),
            sink.events.end());
  EXPECT_NE(std::find(sink.events.begin(), sink.events.end(), "e2"),
            sink.events.end());
}

// A negative-cache entry (class with no matching events) must be invalidated
// when the class hierarchy grows: once the notifying class is registered as
// a subclass of the event's class, the base-class event fires for it.
TEST(DispatchIndexTest, SubclassRegisteredAfterNegativeCacheFires) {
  oodb::ClassRegistry registry;
  ASSERT_TRUE(registry.Register(oodb::ClassDef("Base", "")).ok());

  LocalEventDetector detector;
  detector.set_class_registry(&registry);
  RecordingSink sink;
  ASSERT_TRUE(detector
                  .DefinePrimitive("base_f", "Base", EventModifier::kEnd,
                                   "void f()")
                  .ok());
  ASSERT_TRUE(detector.Subscribe("base_f", &sink, ParamContext::kRecent).ok());

  // "Derived" is unknown to the registry: notifications route nowhere and
  // the key is negatively cached.
  for (int i = 0; i < 3; ++i) {
    detector.Notify("Derived", 1, EventModifier::kEnd, "void f()", NoParams(),
                    1);
  }
  EXPECT_TRUE(sink.events.empty());

  // Registering Derived under Base bumps the registry version; the stale
  // negative entry must not suppress the base-class event.
  ASSERT_TRUE(registry.Register(oodb::ClassDef("Derived", "Base")).ok());
  detector.Notify("Derived", 1, EventModifier::kEnd, "void f()", NoParams(),
                  1);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0], "base_f");
}

// A failed duplicate-name definition must leave no stale side-table state:
// the losing definition's (class, method) routing must not exist, and the
// winner keeps working.
TEST(DispatchIndexTest, FailedDuplicateDefineLeavesNoSideTables) {
  LocalEventDetector detector;
  RecordingSink sink;
  ASSERT_TRUE(detector
                  .DefinePrimitive("e", "Stock", EventModifier::kEnd,
                                   "void f()")
                  .ok());
  // Same event name, different class/method: must fail...
  auto dup = detector.DefinePrimitive("e", "Bond", EventModifier::kEnd,
                                      "void g()");
  EXPECT_FALSE(dup.ok());
  ASSERT_TRUE(detector.Subscribe("e", &sink, ParamContext::kRecent).ok());

  // ...and must not have routed (Bond, void g()) anywhere.
  detector.Notify("Bond", 1, EventModifier::kEnd, "void g()", NoParams(), 1);
  EXPECT_TRUE(sink.events.empty());

  // The winning definition still routes.
  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0], "e");
}

// A sink that removes itself (and a later sink) from the node's subscriber
// list from inside OnEvent must not derail the emission loop: removed sinks
// are skipped, the loop terminates, and later notifications deliver to
// nobody who was removed. (Detector-level Unsubscribe takes the exclusive
// graph lock and therefore must NOT be called from inside a delivery; the
// node-level RemoveSink is the reentrancy-safe operation Emit hardens
// against.)
TEST(DispatchIndexTest, ReentrantRemoveSinkDuringEmit) {
  LocalEventDetector detector;

  class SelfRemovingSink : public EventSink {
   public:
    void OnEvent(const Occurrence&, ParamContext) override {
      ++hits;
      for (EventSink* victim : remove_on_event) {
        node_->RemoveSink(victim);
      }
      remove_on_event.clear();
    }
    EventNode* node_ = nullptr;
    std::vector<EventSink*> remove_on_event;
    int hits = 0;
  };

  SelfRemovingSink first;
  SelfRemovingSink second;
  auto node = detector.DefinePrimitive("e", "Stock", EventModifier::kEnd,
                                       "void f()");
  ASSERT_TRUE(node.ok());
  first.node_ = *node;
  second.node_ = *node;
  ASSERT_TRUE(detector.Subscribe("e", &first, ParamContext::kRecent).ok());
  ASSERT_TRUE(detector.Subscribe("e", &second, ParamContext::kRecent).ok());
  // On the first delivery, `first` removes itself AND `second`.
  first.remove_on_event = {&first, &second};

  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  EXPECT_EQ(first.hits, 1);
  EXPECT_EQ(second.hits, 0) << "sink removed mid-emission was still invoked";

  // Nobody left subscribed: a second notification delivers nothing.
  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  EXPECT_EQ(first.hits, 1);
  EXPECT_EQ(second.hits, 0);
}

// Bulk unsubscription (rule-base teardown) removes exactly the named sinks
// from each node, keeps the others in delivery order, and skips an event
// that does not exist.
TEST(DispatchIndexTest, UnsubscribeAllKeepsRemainingSinksInOrder) {
  class OrderSink : public EventSink {
   public:
    OrderSink(int id, std::vector<int>* log) : id_(id), log_(log) {}
    void OnEvent(const Occurrence&, ParamContext) override {
      log_->push_back(id_);
    }

   private:
    int id_;
    std::vector<int>* log_;
  };

  LocalEventDetector detector;
  ASSERT_TRUE(
      detector.DefinePrimitive("e", "Stock", EventModifier::kEnd, "void f()")
          .ok());
  std::vector<int> log;
  std::vector<std::unique_ptr<OrderSink>> sinks;
  for (int i = 0; i < 5; ++i) {
    sinks.push_back(std::make_unique<OrderSink>(i, &log));
    ASSERT_TRUE(
        detector.Subscribe("e", sinks.back().get(), ParamContext::kRecent)
            .ok());
  }
  const std::string event = "e";
  const std::string missing = "no_such_event";
  const std::vector<LocalEventDetector::Subscription> leaving = {
      {&event, sinks[3].get(), ParamContext::kRecent},
      {&event, sinks[1].get(), ParamContext::kRecent},
      {&missing, sinks[0].get(), ParamContext::kRecent},
  };
  detector.UnsubscribeAll(leaving);

  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  EXPECT_EQ(log, (std::vector<int>{0, 2, 4}));

  const std::vector<LocalEventDetector::Subscription> rest = {
      {&event, sinks[0].get(), ParamContext::kRecent},
      {&event, sinks[2].get(), ParamContext::kRecent},
      {&event, sinks[4].get(), ParamContext::kRecent},
  };
  detector.UnsubscribeAll(rest);
  log.clear();
  detector.Notify("Stock", 1, EventModifier::kEnd, "void f()", NoParams(), 1);
  EXPECT_TRUE(log.empty());
}

// Symbols interned for event matching are stable and distinct.
TEST(SymbolTableTest, InternIsIdempotentAndDistinct) {
  auto& table = common::SymbolTable::Global();
  const common::SymbolId a = table.Intern("DispatchIndexTest.ClassA");
  const common::SymbolId b = table.Intern("DispatchIndexTest.ClassB");
  EXPECT_NE(a, common::kInvalidSymbol);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("DispatchIndexTest.ClassA"), a);
  EXPECT_EQ(table.TryLookup("DispatchIndexTest.ClassA"), a);
  EXPECT_EQ(table.TryLookup("DispatchIndexTest.NeverInterned"),
            common::kInvalidSymbol);
  EXPECT_EQ(table.NameOf(a), "DispatchIndexTest.ClassA");
}

// The table is append-only: interning through many growths keeps every
// earlier id and string.
TEST(SymbolTableTest, GrowthKeepsEveryId) {
  common::SymbolTable table;
  std::vector<common::SymbolId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(table.Intern("grow_" + std::to_string(i)));
    ASSERT_EQ(ids.back(), static_cast<common::SymbolId>(i + 1));
  }
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "grow_" + std::to_string(i);
    EXPECT_EQ(table.Intern(name), ids[i]);
    EXPECT_EQ(table.TryLookup(name), ids[i]);
    EXPECT_EQ(table.NameOf(ids[i]), name);
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_EQ(table.NameOf(5001), "");
}

// Lock-free readers race one writer that interns 20k names through many
// republished indexes (TSan-covered): every id a reader gets back resolves
// to its own name, and every id below size() is already readable.
TEST(SymbolTableTest, ConcurrentReadersSeeOnlyOwnNames) {
  constexpr int kNames = 20000;
  common::SymbolTable table;
  auto name_of = [](int i) { return "concurrent_symbol_" + std::to_string(i); };
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (std::uint64_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (std::uint64_t round = 0; !done.load(std::memory_order_acquire);
           ++round) {
        const std::string name =
            name_of(static_cast<int>((round * 7919 + r * 104729) % kNames));
        const common::SymbolId id = table.TryLookup(name);
        if (id != common::kInvalidSymbol) {
          EXPECT_EQ(table.NameOf(id), name);
        }
        const std::size_t size = table.size();
        if (size > 0) {
          const auto any = static_cast<common::SymbolId>(round % size + 1);
          const std::string& seen = table.NameOf(any);
          ASSERT_FALSE(seen.empty()) << "id " << any << " of " << size;
          EXPECT_EQ(table.TryLookup(seen), any);
        }
      }
    });
  }
  for (int i = 0; i < kNames; ++i) {
    ASSERT_EQ(table.Intern(name_of(i)), static_cast<common::SymbolId>(i + 1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kNames));
  for (int i = 0; i < kNames; i += 997) {
    EXPECT_EQ(table.TryLookup(name_of(i)),
              static_cast<common::SymbolId>(i + 1));
  }
}

}  // namespace
}  // namespace sentinel::detector
