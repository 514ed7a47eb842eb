#include "src/telemetry/timeseries_db.h"

#include <gtest/gtest.h>

#include "src/common/check.h"

namespace ampere {
namespace {

TEST(TimeSeriesDbTest, AppendAndReadBack) {
  TimeSeriesDb db;
  db.Append("row/0/power", SimTime::Minutes(1), 100.0);
  db.Append("row/0/power", SimTime::Minutes(2), 110.0);
  auto series = db.Series("row/0/power");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].time, SimTime::Minutes(1));
  EXPECT_DOUBLE_EQ(series[1].value, 110.0);
}

TEST(TimeSeriesDbTest, MissingSeriesIsEmpty) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.Series("nope").empty());
  EXPECT_TRUE(db.SeriesStitched("nope").empty());
  EXPECT_FALSE(db.Latest("nope").has_value());
}

TEST(TimeSeriesDbTest, OutOfOrderAppendThrows) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(5), 1.0);
  EXPECT_THROW(db.Append("s", SimTime::Minutes(4), 2.0), CheckFailure);
  // Equal timestamps are allowed (same-minute resample).
  EXPECT_NO_THROW(db.Append("s", SimTime::Minutes(5), 3.0));
}

TEST(TimeSeriesDbTest, LatestReturnsNewest) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(1), 1.0);
  db.Append("s", SimTime::Minutes(2), 2.0);
  auto latest = db.Latest("s");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->value, 2.0);
}

TEST(TimeSeriesDbTest, QueryRangeInclusive) {
  TimeSeriesDb db;
  for (int m = 0; m < 10; ++m) {
    db.Append("s", SimTime::Minutes(m), static_cast<double>(m));
  }
  auto range = db.QueryView("s", SimTime::Minutes(3), SimTime::Minutes(6));
  ASSERT_EQ(range.size(), 4u);
  EXPECT_DOUBLE_EQ(range.front().value, 3.0);
  EXPECT_DOUBLE_EQ(range.back().value, 6.0);
}

TEST(TimeSeriesDbTest, QueryOutsideRangeEmpty) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(5), 1.0);
  EXPECT_TRUE(
      db.QueryView("s", SimTime::Minutes(6), SimTime::Minutes(9)).empty());
  EXPECT_TRUE(
      db.QueryView("s", SimTime::Minutes(0), SimTime::Minutes(4)).empty());
}

TEST(TimeSeriesDbTest, ValuesExtractsInOrder) {
  TimeSeriesDb db;
  db.Append("s", SimTime::Minutes(1), 5.0);
  db.Append("s", SimTime::Minutes(2), 7.0);
  std::vector<double> values;
  db.SeriesStitched("s").ForEachPoint(
      [&values](const TimePoint& p) { values.push_back(p.value); });
  EXPECT_EQ(values, (std::vector<double>{5.0, 7.0}));
}

TEST(TimeSeriesDbTest, SeriesNamesSortedAndCounted) {
  TimeSeriesDb db;
  db.Append("b", SimTime(), 1.0);
  db.Append("a", SimTime(), 1.0);
  db.Append("a", SimTime::Minutes(1), 2.0);
  auto names = db.SeriesNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(db.TotalPoints(), 3u);
}

}  // namespace
}  // namespace ampere
