#include "debug/rule_debugger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

namespace sentinel::debug {
namespace {

using detector::EventModifier;

class RuleDebuggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.OpenInMemory().ok());
    debugger_.Attach(&db_);
    ASSERT_TRUE(
        db_.DeclareEvent("sell", "Stock", EventModifier::kEnd, "void sell()")
            .ok());
    ASSERT_TRUE(
        db_.DeclareEvent("price", "Stock", EventModifier::kEnd, "void price()")
            .ok());
  }

  void Fire(const std::string& method) {
    auto params = std::make_shared<detector::ParamList>();
    db_.NotifyMethod("Stock", 1, EventModifier::kEnd, method, params, 1);
  }

  core::ActiveDatabase db_;
  RuleDebugger debugger_;
};

TEST_F(RuleDebuggerTest, TraceRecordsEventsAndRules) {
  ASSERT_TRUE(db_.rule_manager()
                  ->DefineRule("r1", "sell", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  Fire("void sell()");
  EXPECT_EQ(debugger_.event_count(), 1u);
  EXPECT_EQ(debugger_.rule_execution_count(), 1u);
  std::string trace = debugger_.RenderTrace();
  EXPECT_NE(trace.find("Stock.void sell()"), std::string::npos);
  EXPECT_NE(trace.find("rule r1"), std::string::npos);
  EXPECT_NE(trace.find("[fired]"), std::string::npos);
}

TEST_F(RuleDebuggerTest, ConditionFailureVisible) {
  ASSERT_TRUE(db_.rule_manager()
                  ->DefineRule("r1", "sell",
                               [](const rules::RuleContext&) { return false; },
                               [](const rules::RuleContext&) {})
                  .ok());
  Fire("void sell()");
  EXPECT_NE(debugger_.RenderTrace().find("[condition false]"),
            std::string::npos);
}

TEST_F(RuleDebuggerTest, NestedTriggeringAppearsInInteractionGraph) {
  ASSERT_TRUE(db_.rule_manager()
                  ->DefineRule("outer", "sell", nullptr,
                               [this](const rules::RuleContext&) {
                                 auto params =
                                     std::make_shared<detector::ParamList>();
                                 db_.detector()->Notify("Stock", 1,
                                                        EventModifier::kEnd,
                                                        "void price()", params,
                                                        1);
                               })
                  .ok());
  ASSERT_TRUE(db_.rule_manager()
                  ->DefineRule("inner", "price", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  Fire("void sell()");
  std::string dot = debugger_.RuleInteractionDot();
  EXPECT_NE(dot.find("\"outer\" -> \"inner\""), std::string::npos) << dot;
}

// The event graph in DOT is the detector's own rendering (what /graph and
// shell `dot` serve); the debugger's trace is read beside it.
TEST_F(RuleDebuggerTest, EventGraphDotShowsStructure) {
  auto sell = db_.detector()->Find("sell");
  auto price = db_.detector()->Find("price");
  ASSERT_TRUE(db_.detector()->DefineAnd("pair", *sell, *price).ok());
  ASSERT_TRUE(db_.rule_manager()
                  ->DefineRule("r", "pair", nullptr,
                               [](const rules::RuleContext&) {})
                  .ok());
  std::string dot = db_.detector()->DumpGraph();
  EXPECT_NE(dot.find("digraph events"), std::string::npos);
  EXPECT_NE(dot.find("\"sell\" -> \"pair\""), std::string::npos);
  EXPECT_NE(dot.find("\"price\" -> \"pair\""), std::string::npos);
  EXPECT_NE(dot.find("AND"), std::string::npos);
  EXPECT_NE(dot.find("subscribers=1"), std::string::npos) << dot;
}

TEST_F(RuleDebuggerTest, ClearResetsTrace) {
  Fire("void sell()");
  EXPECT_GT(debugger_.event_count(), 0u);
  debugger_.Clear();
  EXPECT_EQ(debugger_.event_count(), 0u);
  EXPECT_EQ(debugger_.rule_execution_count(), 0u);
}

}  // namespace
}  // namespace sentinel::debug
