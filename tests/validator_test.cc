// Tests for ranked and smart (Algorithm 3) validation. Each case runs
// under both strategies with no pool and with a pool at two window
// sizes, and must commit the same outcome in all three.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/traffic_gen.h"
#include "paleo/validator.h"

namespace paleo {
namespace {

struct Fixture {
  Table table;
  Schema schema;
  Executor executor;
  TopKList list;
  TopKQuery truth;

  static Fixture Make() {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    Schema schema = table.schema();
    TopKQuery truth;
    truth.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                      Value::String("CA"));
    truth.expr = RankExpr::Column(schema.FieldIndex("minutes"));
    truth.agg = AggFn::kMax;
    truth.k = 5;
    Executor executor;
    auto list = executor.Execute(table, truth, ExecContext{});
    EXPECT_TRUE(list.ok());
    return Fixture{std::move(table), std::move(schema), Executor(),
                   *std::move(list), truth};
  }

  CandidateQuery MakeCandidate(const TopKQuery& q, double suitability) {
    CandidateQuery cq;
    cq.query = q;
    cq.suitability = suitability;
    return cq;
  }

  /// A query over the wrong column (no overlap with L's entities
  /// guaranteed not in general, but values differ).
  TopKQuery WrongRanking() const {
    TopKQuery q = truth;
    q.expr = RankExpr::Column(schema.FieldIndex("sms"));
    return q;
  }

  /// A query with an unrelated predicate selecting other states.
  TopKQuery WrongPredicate() const {
    TopKQuery q = truth;
    q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                  Value::String("NY"));
    return q;
  }
};

TEST(ValidatorTest, AcceptsExactMatchOnly) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  Validator validator(f.table, &f.executor, options);
  EXPECT_TRUE(validator.Accepts(f.list, f.list));
  TopKList shifted = f.list;
  TopKList other;
  for (const TopKEntry& e : f.list.entries()) {
    other.Append(e.entity, e.value + 1.0);
  }
  EXPECT_FALSE(validator.Accepts(other, f.list));
}

TEST(ValidatorTest, PartialMatchModeAcceptsNearMisses) {
  Fixture f = Fixture::Make();
  PaleoOptions options;
  options.match_mode = MatchMode::kPartial;
  options.partial_min_entity_jaccard = 0.6;
  options.partial_max_value_distance = 0.2;
  Validator validator(f.table, &f.executor, options);

  // Same entities, values off by 1% -> accepted.
  TopKList close;
  for (const TopKEntry& e : f.list.entries()) {
    close.Append(e.entity, e.value * 1.01);
  }
  EXPECT_TRUE(validator.Accepts(close, f.list));

  // Disjoint entities -> rejected.
  TopKList disjoint;
  for (size_t i = 0; i < f.list.size(); ++i) {
    disjoint.Append("nobody " + std::to_string(i), 100.0);
  }
  EXPECT_FALSE(validator.Accepts(disjoint, f.list));
  // Empty result -> rejected.
  EXPECT_FALSE(validator.Accepts(TopKList(), f.list));
}

/// What one strategy's validation of a case must produce.
struct Want {
  int64_t executions = 0;
  int64_t skip_events = 0;
  int passes = 0;
  /// Valid queries with their executions_at_discovery, in commit order.
  std::vector<std::pair<TopKQuery, int64_t>> valid;
};

/// One validation case, run under both strategies in every window mode.
struct Case {
  std::vector<CandidateQuery> candidates;
  TopKList input;
  bool stop_at_first_valid = true;
  const RunBudget* budget = nullptr;
  int64_t prior_executions = 0;
  TerminationReason termination = TerminationReason::kCompleted;
  /// Indices never executed, under either strategy.
  std::vector<size_t> unvalidated;
  Want ranked;
  Want smart;
};

/// Validates `c` under {ranked, smart} x {no pool, a 4-worker pool at
/// num_threads 2, the same pool at 4}. Every mode must give the
/// strategy's expected counts and valid queries and the case's
/// unvalidated candidates.
void ExpectCase(const Fixture& f, const Case& c) {
  ThreadPool pool(4);
  struct Mode {
    const char* name;
    ThreadPool* pool;
    int num_threads;
  };
  const Mode modes[] = {{"no pool", nullptr, 1},
                        {"pool, num_threads 2", &pool, 2},
                        {"pool, num_threads 4", &pool, 4}};
  for (ValidationStrategy strategy :
       {ValidationStrategy::kRanked, ValidationStrategy::kSmart}) {
    const bool smart = strategy == ValidationStrategy::kSmart;
    const Want& want = smart ? c.smart : c.ranked;
    for (const Mode& mode : modes) {
      SCOPED_TRACE(std::string(smart ? "smart, " : "ranked, ") + mode.name);
      PaleoOptions options;
      options.validation_strategy = strategy;
      options.stop_at_first_valid = c.stop_at_first_valid;
      options.num_threads = mode.num_threads;
      Executor executor;
      Validator validator(f.table, &executor, options, mode.pool);
      auto outcome = validator.Validate(c.candidates, c.input, c.budget,
                                        c.prior_executions);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->executions, want.executions);
      EXPECT_EQ(outcome->skip_events, want.skip_events);
      EXPECT_EQ(outcome->passes, want.passes);
      EXPECT_EQ(outcome->termination, c.termination);
      ASSERT_EQ(outcome->valid.size(), want.valid.size());
      for (size_t i = 0; i < want.valid.size(); ++i) {
        EXPECT_TRUE(outcome->valid[i].query == want.valid[i].first) << i;
        EXPECT_EQ(outcome->valid[i].executions_at_discovery,
                  want.valid[i].second)
            << i;
      }
      EXPECT_EQ(outcome->unvalidated, c.unvalidated);
      if (c.budget != nullptr) {
        // Nothing is launched past the cap, so no execution is wasted.
        EXPECT_EQ(outcome->speculative_executions, 0);
        EXPECT_EQ(executor.stats().queries_executed, want.executions);
      }
    }
  }
}

TEST(ValidatorTest, RankedValidationFindsFirstValid) {
  Fixture f = Fixture::Make();
  Case c;
  c.candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.truth, 0.8),
      f.MakeCandidate(f.WrongPredicate(), 0.7),
  };
  c.input = f.list;
  // Wrong ranking, then truth; smart takes the wrong ranking as Qfm
  // (same entities as L), and truth shares its predicate.
  c.ranked = {2, 0, 1, {{f.truth, 2}}};
  c.smart = {2, 0, 1, {{f.truth, 2}}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, RankedValidationExhaustsWithoutMatch) {
  Fixture f = Fixture::Make();
  Case c;
  c.candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.WrongPredicate(), 0.7),
  };
  c.input = f.list;
  c.ranked = {2, 0, 1, {}};
  // Smart skips the unrelated predicate after Qfm and executes it in a
  // second pass.
  c.smart = {2, 1, 2, {}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, RankedValidationFindsAllWhenRequested) {
  Fixture f = Fixture::Make();
  TopKQuery with_plan = f.truth;
  with_plan.predicate =
      *f.truth.predicate.And({f.schema.FieldIndex("plan"),
                              Value::String("XL")});
  Case c;
  c.candidates = {
      f.MakeCandidate(f.truth, 0.9),
      f.MakeCandidate(f.WrongRanking(), 0.8),
      f.MakeCandidate(with_plan, 0.7),
  };
  c.input = f.list;
  c.stop_at_first_valid = false;
  // Both the original and the plan-augmented query are valid (the
  // paper's Section 1 observation).
  c.ranked = {3, 0, 1, {{f.truth, 1}, {with_plan, 3}}};
  // truth is Qfm with a confirmed ranking, so the wrong ranking is
  // skipped until the second pass.
  c.smart = {3, 1, 2, {{f.truth, 1}, {with_plan, 2}}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, SmartValidationSkipsUnrelatedPredicates) {
  Fixture f = Fixture::Make();
  // First candidate: right predicate family, wrong ranking -> its
  // result shares all entities with L (max(sms) over CA customers
  // ranks the same five people), making it the "first match" Qfm.
  // Unrelated-predicate candidates afterwards must be skipped.
  Case c;
  c.candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.WrongPredicate(), 0.8),
      f.MakeCandidate(f.truth, 0.7),
  };
  c.input = f.list;
  c.ranked = {3, 0, 1, {{f.truth, 3}}};
  c.smart = {2, 1, 1, {{f.truth, 2}}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, SmartValidationRetriesSkippedCandidates) {
  Fixture f = Fixture::Make();
  // The valid query hides behind a predicate unrelated to the first
  // match: max(sms) ascending over XL customers lists four of L's five
  // entities (Jaccard 0.67 >= tau), so it becomes Qfm, but it shares no
  // atom with state = 'CA'. Smart validation skips truth in the first
  // pass and must recover it in the second.
  TopKQuery first_match = f.WrongRanking();
  first_match.predicate = Predicate::Atom(f.schema.FieldIndex("plan"),
                                          Value::String("XL"));
  first_match.order = SortOrder::kAsc;
  Case c;
  c.candidates = {
      f.MakeCandidate(first_match, 0.9),
      f.MakeCandidate(f.truth, 0.8),
  };
  c.input = f.list;
  c.ranked = {2, 0, 1, {{f.truth, 2}}};
  c.smart = {2, 1, 2, {{f.truth, 2}}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, ExecutionBudgetIsHonored) {
  Fixture f = Fixture::Make();
  // A cap of 3 with 2 executions already spent earlier in the run
  // leaves room for one.
  RunBudget budget;
  budget.set_max_executions(3);
  Case c;
  c.candidates = {
      f.MakeCandidate(f.WrongRanking(), 0.9),
      f.MakeCandidate(f.truth, 0.8),
  };
  c.input = f.list;
  c.budget = &budget;
  c.prior_executions = 2;
  c.termination = TerminationReason::kExecutionBudget;
  c.unvalidated = {1};
  c.ranked = {1, 0, 1, {}};
  c.smart = {1, 0, 1, {}};
  ExpectCase(f, c);
}

TEST(ValidatorTest, EmptyCandidateListIsNotAnError) {
  Fixture f = Fixture::Make();
  Case c;
  c.input = f.list;
  c.ranked = {0, 0, 0, {}};
  c.smart = {0, 0, 0, {}};
  ExpectCase(f, c);
}

}  // namespace
}  // namespace paleo
