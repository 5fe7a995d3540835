#include <gtest/gtest.h>

#include <memory>

#include "detector/local_detector.h"
#include "detector_test_util.h"
#include "oodb/schema.h"

namespace sentinel::detector {
namespace {

class PrimitiveDetectionTest : public ::testing::Test {
 protected:
  LocalEventDetector det_;
  RecordingSink sink_;
};

TEST_F(PrimitiveDetectionTest, EndMethodEventFires) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "STOCK", "int sell_stock(int qty)", 5);
  ASSERT_EQ(sink_.hits.size(), 1u);
  EXPECT_EQ(sink_.hits[0].occurrence.event_name, "e1");
  EXPECT_EQ(sink_.hits[0].occurrence.constituents.size(), 1u);
  auto v = sink_.hits[0].occurrence.Param("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 5);
}

TEST_F(PrimitiveDetectionTest, ModifierMustMatch) {
  ASSERT_TRUE(det_.DefinePrimitive("e_begin", "STOCK", EventModifier::kBegin,
                                   "void set_price(float price)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e_begin", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "STOCK", "void set_price(float price)", 1, 1, 100,
       EventModifier::kEnd);
  EXPECT_TRUE(sink_.hits.empty());
  Fire(&det_, "STOCK", "void set_price(float price)", 1, 1, 100,
       EventModifier::kBegin);
  EXPECT_EQ(sink_.hits.size(), 1u);
}

TEST_F(PrimitiveDetectionTest, MethodSignatureMustMatch) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "STOCK", "void set_price(float price)", 1);
  EXPECT_TRUE(sink_.hits.empty());
}

TEST_F(PrimitiveDetectionTest, ClassMustMatch) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "BOND", "int sell_stock(int qty)", 1);
  EXPECT_TRUE(sink_.hits.empty());
}

TEST_F(PrimitiveDetectionTest, InstanceLevelEventFiltersOnOid) {
  // Paper §3.1: set_IBM_price fires only for the IBM object; any_stk_price
  // fires for every instance of the class.
  ASSERT_TRUE(det_.DefinePrimitive("any_stk_price", "Stock",
                                   EventModifier::kBegin,
                                   "void set_price(float price)")
                  .ok());
  ASSERT_TRUE(det_.DefinePrimitive("set_IBM_price", "Stock",
                                   EventModifier::kBegin,
                                   "void set_price(float price)",
                                   /*instance=*/42)
                  .ok());
  RecordingSink class_sink, instance_sink;
  ASSERT_TRUE(
      det_.Subscribe("any_stk_price", &class_sink, ParamContext::kRecent).ok());
  ASSERT_TRUE(
      det_.Subscribe("set_IBM_price", &instance_sink, ParamContext::kRecent)
          .ok());

  Fire(&det_, "Stock", "void set_price(float price)", 1, 1, /*oid=*/42,
       EventModifier::kBegin);
  Fire(&det_, "Stock", "void set_price(float price)", 2, 1, /*oid=*/7,
       EventModifier::kBegin);

  EXPECT_EQ(class_sink.hits.size(), 2u);
  EXPECT_EQ(instance_sink.hits.size(), 1u);
  EXPECT_EQ(instance_sink.hits[0].occurrence.constituents[0]->oid, 42u);
}

// The first matching node labels the raw notification in place; a second
// node must not relabel what the first node's detection already holds.
TEST_F(PrimitiveDetectionTest, NotificationMatchingTwoNodesKeepsEachLabel) {
  ASSERT_TRUE(det_.DefinePrimitive("any_stk_price", "Stock",
                                   EventModifier::kEnd,
                                   "void set_price(float price)")
                  .ok());
  ASSERT_TRUE(det_.DefinePrimitive("set_IBM_price", "Stock",
                                   EventModifier::kEnd,
                                   "void set_price(float price)",
                                   /*instance=*/42)
                  .ok());
  RecordingSink class_sink, instance_sink;
  ASSERT_TRUE(
      det_.Subscribe("any_stk_price", &class_sink, ParamContext::kRecent).ok());
  ASSERT_TRUE(
      det_.Subscribe("set_IBM_price", &instance_sink, ParamContext::kRecent)
          .ok());

  Fire(&det_, "Stock", "void set_price(float price)", 7, 1, /*oid=*/42);

  ASSERT_EQ(class_sink.hits.size(), 1u);
  ASSERT_EQ(instance_sink.hits.size(), 1u);
  const Occurrence& by_class = class_sink.hits[0].occurrence;
  const Occurrence& by_instance = instance_sink.hits[0].occurrence;
  EXPECT_EQ(by_class.constituents[0]->event_name, "any_stk_price");
  EXPECT_EQ(by_instance.constituents[0]->event_name, "set_IBM_price");
  EXPECT_EQ(by_class.Of("any_stk_price").size(), 1u);
  EXPECT_EQ(by_instance.Of("set_IBM_price").size(), 1u);
  // Both labels share the notification's one parameter list.
  EXPECT_EQ(by_class.constituents[0]->params,
            by_instance.constituents[0]->params);
}

TEST_F(PrimitiveDetectionTest, ClassLevelEventAppliesToSubclasses) {
  oodb::ClassRegistry registry;
  ASSERT_TRUE(registry.Register(oodb::ClassDef("Stock", "")).ok());
  ASSERT_TRUE(registry.Register(oodb::ClassDef("TechStock", "Stock")).ok());
  det_.set_class_registry(&registry);

  ASSERT_TRUE(det_.DefinePrimitive("e1", "Stock", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "TechStock", "int sell_stock(int qty)", 1);
  EXPECT_EQ(sink_.hits.size(), 1u);
  // But not the other direction: an event on the subclass does not fire for
  // base-class instances.
  ASSERT_TRUE(det_.DefinePrimitive("e_sub", "TechStock", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  RecordingSink sub_sink;
  ASSERT_TRUE(det_.Subscribe("e_sub", &sub_sink, ParamContext::kRecent).ok());
  Fire(&det_, "Stock", "int sell_stock(int qty)", 1);
  EXPECT_TRUE(sub_sink.hits.empty());
}

TEST_F(PrimitiveDetectionTest, UnsubscribedContextDoesNotFire) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  // No subscription at all: the node has no active context.
  Fire(&det_, "STOCK", "int sell_stock(int qty)", 1);
  EXPECT_TRUE(sink_.hits.empty());
}

TEST_F(PrimitiveDetectionTest, UnsubscribeStopsDelivery) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "STOCK", "int sell_stock(int qty)", 1);
  ASSERT_TRUE(det_.Unsubscribe("e1", &sink_, ParamContext::kRecent).ok());
  Fire(&det_, "STOCK", "int sell_stock(int qty)", 2);
  EXPECT_EQ(sink_.hits.size(), 1u);
}

TEST_F(PrimitiveDetectionTest, ExplicitEvents) {
  ASSERT_TRUE(det_.DefineExplicit("user_alert").ok());
  ASSERT_TRUE(det_.Subscribe("user_alert", &sink_, ParamContext::kRecent).ok());
  auto params = std::make_shared<ParamList>();
  params->Insert("msg", oodb::Value::String("hello"));
  ASSERT_TRUE(det_.RaiseExplicit("user_alert", params, 1).ok());
  ASSERT_EQ(sink_.hits.size(), 1u);
  EXPECT_EQ(sink_.hits[0].occurrence.Param("msg")->AsString(), "hello");
  EXPECT_TRUE(det_.RaiseExplicit("no_such_event", nullptr, 1).IsNotFound());
}

TEST_F(PrimitiveDetectionTest, SuppressScopeBlocksSignaling) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  {
    LocalEventDetector::SuppressScope guard;
    Fire(&det_, "STOCK", "int sell_stock(int qty)", 1);
    EXPECT_TRUE(sink_.hits.empty());
  }
  Fire(&det_, "STOCK", "int sell_stock(int qty)", 2);
  EXPECT_EQ(sink_.hits.size(), 1u);
}

TEST_F(PrimitiveDetectionTest, DuplicateDefinitionRejected) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  EXPECT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .status()
                  .IsAlreadyExists());
}

TEST_F(PrimitiveDetectionTest, TimestampsAreMonotone) {
  ASSERT_TRUE(det_.DefinePrimitive("e1", "STOCK", EventModifier::kEnd,
                                   "int sell_stock(int qty)")
                  .ok());
  ASSERT_TRUE(det_.Subscribe("e1", &sink_, ParamContext::kRecent).ok());
  for (int i = 0; i < 5; ++i) Fire(&det_, "STOCK", "int sell_stock(int qty)", i);
  ASSERT_EQ(sink_.hits.size(), 5u);
  for (std::size_t i = 1; i < sink_.hits.size(); ++i) {
    EXPECT_LT(sink_.hits[i - 1].occurrence.t_end,
              sink_.hits[i].occurrence.t_start);
  }
}

}  // namespace
}  // namespace sentinel::detector
