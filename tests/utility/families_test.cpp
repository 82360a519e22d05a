#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "impatience/utility/families.hpp"

namespace impatience::utility {
namespace {

// ---------------------------------------------------------------- Step

TEST(StepUtility, ValueIsIndicator) {
  StepUtility u(2.0);
  EXPECT_DOUBLE_EQ(u.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(u.value(2.0), 1.0);
  EXPECT_DOUBLE_EQ(u.value(2.0001), 0.0);
  EXPECT_DOUBLE_EQ(u.value_at_zero(), 1.0);
  EXPECT_DOUBLE_EQ(u.value_at_inf(), 0.0);
}

TEST(StepUtility, ClosedFormTransforms) {
  StepUtility u(3.0);
  EXPECT_NEAR(u.loss_transform(0.5), std::exp(-1.5), 1e-12);
  EXPECT_NEAR(u.time_weighted_transform(0.5), 3.0 * std::exp(-1.5), 1e-12);
}

TEST(StepUtility, ExpectedGainIsFulfillmentProbability) {
  StepUtility u(1.0);
  // P(Y <= tau) for Y ~ Exp(2) = 1 - e^{-2}.
  EXPECT_NEAR(u.expected_gain(2.0), 1.0 - std::exp(-2.0), 1e-12);
}

TEST(StepUtility, RejectsBadTau) {
  EXPECT_THROW(StepUtility(0.0), std::invalid_argument);
  EXPECT_THROW(StepUtility(-1.0), std::invalid_argument);
}

TEST(StepUtility, RejectsBadM) {
  StepUtility u(1.0);
  EXPECT_THROW(u.loss_transform(0.0), std::domain_error);
  EXPECT_THROW(u.time_weighted_transform(-1.0), std::domain_error);
}

// --------------------------------------------------------- Exponential

TEST(ExponentialUtility, ValueAndDifferential) {
  ExponentialUtility u(0.5);
  EXPECT_NEAR(u.value(2.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(u.differential(2.0), 0.5 * std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(u.value_at_zero(), 1.0);
  EXPECT_DOUBLE_EQ(u.value_at_inf(), 0.0);
}

TEST(ExponentialUtility, ClosedFormTransforms) {
  ExponentialUtility u(2.0);
  EXPECT_NEAR(u.loss_transform(3.0), 2.0 / 5.0, 1e-12);
  EXPECT_NEAR(u.time_weighted_transform(3.0), 2.0 / 25.0, 1e-12);
}

TEST(ExponentialUtility, ExpectedGain) {
  // E[e^{-nu Y}] = M / (M + nu) for Y ~ Exp(M).
  ExponentialUtility u(1.0);
  EXPECT_NEAR(u.expected_gain(4.0), 4.0 / 5.0, 1e-12);
}

TEST(ExponentialUtility, RejectsBadNu) {
  EXPECT_THROW(ExponentialUtility(0.0), std::invalid_argument);
}

// --------------------------------------------------------------- Power

TEST(PowerUtility, TimeCriticalRegime) {
  PowerUtility u(1.5);  // h = 2/sqrt(t)
  EXPECT_NEAR(u.value(4.0), std::pow(4.0, -0.5) / 0.5, 1e-12);
  EXPECT_TRUE(std::isinf(u.value_at_zero()));
  EXPECT_DOUBLE_EQ(u.value_at_inf(), 0.0);
  EXPECT_GT(u.expected_gain(1.0), 0.0);
}

TEST(PowerUtility, WaitingCostRegime) {
  PowerUtility u(0.0);  // h(t) = -t
  EXPECT_DOUBLE_EQ(u.value(3.0), -3.0);
  EXPECT_DOUBLE_EQ(u.value_at_zero(), 0.0);
  EXPECT_TRUE(std::isinf(u.value_at_inf()));
  EXPECT_LT(u.value_at_inf(), 0.0);
  // E[-Y] = -1/M.
  EXPECT_NEAR(u.expected_gain(2.0), -0.5, 1e-12);
}

TEST(PowerUtility, DifferentialIsPower) {
  PowerUtility u(0.5);
  EXPECT_NEAR(u.differential(4.0), std::pow(4.0, -0.5), 1e-12);
}

TEST(PowerUtility, LossTransformClosedForm) {
  PowerUtility u(0.5);
  // Gamma(0.5) M^{-0.5}.
  EXPECT_NEAR(u.loss_transform(4.0), std::sqrt(M_PI) * 0.5, 1e-10);
}

TEST(PowerUtility, LossTransformDivergesAboveOne) {
  PowerUtility u(1.5);
  EXPECT_TRUE(std::isinf(u.loss_transform(1.0)));
}

TEST(PowerUtility, TimeWeightedTransformClosedForm) {
  PowerUtility u(1.5);
  // Gamma(0.5) M^{-0.5}.
  EXPECT_NEAR(u.time_weighted_transform(4.0), std::sqrt(M_PI) * 0.5, 1e-10);
}

TEST(PowerUtility, RejectsInvalidAlpha) {
  EXPECT_THROW(PowerUtility(2.0), std::invalid_argument);
  EXPECT_THROW(PowerUtility(2.5), std::invalid_argument);
  EXPECT_THROW(PowerUtility(1.0), std::invalid_argument);
}

TEST(PowerUtility, NegativeAlphaCost) {
  PowerUtility u(-1.0);  // h = -t^2/2
  EXPECT_DOUBLE_EQ(u.value(2.0), -2.0);
  // E[-Y^2/2] = -1/M^2 for Y ~ Exp(M).
  EXPECT_NEAR(u.expected_gain(2.0), -0.25, 1e-12);
}

// -------------------------------------------------------------- NegLog

TEST(NegLogUtility, Value) {
  NegLogUtility u;
  EXPECT_DOUBLE_EQ(u.value(1.0), 0.0);
  EXPECT_LT(u.value(2.0), 0.0);
  EXPECT_GT(u.value(0.5), 0.0);
  EXPECT_TRUE(std::isinf(u.value_at_zero()));
  EXPECT_TRUE(std::isinf(u.value_at_inf()));
}

TEST(NegLogUtility, TimeWeightedTransformIsReciprocal) {
  NegLogUtility u;
  EXPECT_NEAR(u.time_weighted_transform(5.0), 0.2, 1e-12);
}

TEST(NegLogUtility, ExpectedGain) {
  NegLogUtility u;
  // E[-ln Y] = ln M + gamma.
  EXPECT_NEAR(u.expected_gain(1.0), 0.5772156649, 1e-9);
  EXPECT_NEAR(u.expected_gain(std::exp(1.0)), 1.5772156649, 1e-9);
}

// ----------------------------------------------------------- Tabulated

TEST(TabulatedUtility, InterpolatesLinearly) {
  TabulatedUtility u({{0.0, 1.0}, {2.0, 0.0}});
  EXPECT_DOUBLE_EQ(u.value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(u.value(1.0), 0.5);
  EXPECT_DOUBLE_EQ(u.value(2.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(5.0), 0.0);  // constant beyond last sample
}

TEST(TabulatedUtility, DifferentialIsSlopeMagnitude) {
  TabulatedUtility u({{0.0, 1.0}, {2.0, 0.0}, {4.0, -3.0}});
  EXPECT_DOUBLE_EQ(u.differential(1.0), 0.5);
  EXPECT_DOUBLE_EQ(u.differential(3.0), 1.5);
  EXPECT_DOUBLE_EQ(u.differential(10.0), 0.0);
}

TEST(TabulatedUtility, Validation) {
  EXPECT_THROW(TabulatedUtility({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(TabulatedUtility({{1.0, 1.0}, {1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(TabulatedUtility({{0.0, 0.0}, {1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(TabulatedUtility({{-1.0, 1.0}, {1.0, 0.0}}),
               std::invalid_argument);
}

TEST(TabulatedUtility, LossTransformMatchesNumericBase) {
  TabulatedUtility u({{0.0, 2.0}, {1.0, 1.5}, {3.0, 0.25}, {6.0, 0.0}});
  // The override must agree with direct quadrature of the differential.
  const DelayUtility& base = u;
  for (double M : {0.2, 1.0, 4.0}) {
    const double closed = u.loss_transform(M);
    double numeric = 0.0;
    // Manual quadrature over each linear segment.
    for (double t = 0.0005; t < 6.0; t += 0.001) {
      numeric += std::exp(-M * t) * base.differential(t) * 0.001;
    }
    EXPECT_NEAR(closed, numeric, 1e-3) << "M=" << M;
  }
}

// ------------------------------------------------------------- Mixture

TEST(MixtureUtility, WeightedSum) {
  std::vector<MixtureUtility::Component> comps;
  comps.push_back({0.5, std::make_unique<StepUtility>(1.0)});
  comps.push_back({0.5, std::make_unique<ExponentialUtility>(1.0)});
  MixtureUtility u(std::move(comps));
  EXPECT_NEAR(u.value(0.5), 0.5 * 1.0 + 0.5 * std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(u.value_at_zero(), 1.0);
  EXPECT_NEAR(u.loss_transform(2.0),
              0.5 * std::exp(-2.0) + 0.5 * (1.0 / 3.0), 1e-12);
}

TEST(MixtureUtility, Validation) {
  EXPECT_THROW(MixtureUtility({}), std::invalid_argument);
  std::vector<MixtureUtility::Component> bad;
  bad.push_back({0.0, std::make_unique<StepUtility>(1.0)});
  EXPECT_THROW(MixtureUtility(std::move(bad)), std::invalid_argument);
}

TEST(MixtureUtility, CloneIsDeep) {
  std::vector<MixtureUtility::Component> comps;
  comps.push_back({1.0, std::make_unique<ExponentialUtility>(2.0)});
  MixtureUtility u(std::move(comps));
  auto copy = u.clone();
  EXPECT_NEAR(copy->value(1.0), u.value(1.0), 1e-15);
  EXPECT_NE(copy.get(), static_cast<DelayUtility*>(&u));
}

// -------------------------------------------------- generic invariants

// A labelled family instance. CMake's test discovery names each ctest
// case after the printed parameter, so the parameter prints as a fixed
// label rather than as an address that changes from run to run.
struct FamilyCase {
  const char* label;
  const DelayUtility* utility;
};

void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.label; }

class AllFamiliesTest : public ::testing::TestWithParam<FamilyCase> {};

// Shared instances for the parameterized sweep.
const StepUtility kStep(1.0);
const ExponentialUtility kExp(0.7);
const PowerUtility kPowerCost(0.0);
const PowerUtility kPowerCost2(-1.5);
const PowerUtility kPowerCritical(1.5);
const NegLogUtility kNegLog;

INSTANTIATE_TEST_SUITE_P(
    Families, AllFamiliesTest,
    ::testing::Values(FamilyCase{"Step", &kStep},
                      FamilyCase{"Exponential", &kExp},
                      FamilyCase{"PowerCost", &kPowerCost},
                      FamilyCase{"PowerCost2", &kPowerCost2},
                      FamilyCase{"PowerCritical", &kPowerCritical},
                      FamilyCase{"NegLog", &kNegLog}));

TEST_P(AllFamiliesTest, ValueIsNonIncreasing) {
  const DelayUtility& u = *GetParam().utility;
  double prev = u.value(0.01);
  for (double t = 0.02; t < 20.0; t *= 1.3) {
    const double v = u.value(t);
    EXPECT_LE(v, prev + 1e-12) << u.name() << " at t=" << t;
    prev = v;
  }
}

TEST_P(AllFamiliesTest, TimeWeightedTransformIsPositiveAndDecreasing) {
  const DelayUtility& u = *GetParam().utility;
  double prev = u.time_weighted_transform(0.05);
  EXPECT_GT(prev, 0.0);
  for (double M = 0.1; M < 50.0; M *= 2.0) {
    const double v = u.time_weighted_transform(M);
    EXPECT_GT(v, 0.0) << u.name();
    EXPECT_LT(v, prev) << u.name() << " at M=" << M;
    prev = v;
  }
}

TEST_P(AllFamiliesTest, ExpectedGainIncreasesWithFulfilmentRate) {
  const DelayUtility& u = *GetParam().utility;
  double prev = u.expected_gain(0.05);
  for (double M = 0.1; M < 50.0; M *= 2.0) {
    const double v = u.expected_gain(M);
    EXPECT_GT(v, prev) << u.name() << " at M=" << M;
    prev = v;
  }
}

TEST_P(AllFamiliesTest, CloneAgrees) {
  const DelayUtility& u = *GetParam().utility;
  const auto copy = u.clone();
  EXPECT_EQ(copy->name(), u.name());
  for (double t : {0.3, 1.0, 4.2}) {
    EXPECT_DOUBLE_EQ(copy->value(t), u.value(t));
  }
  EXPECT_DOUBLE_EQ(copy->time_weighted_transform(1.3),
                   u.time_weighted_transform(1.3));
}

}  // namespace
}  // namespace impatience::utility
