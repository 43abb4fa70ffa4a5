#include "table/table.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/string_util.h"
#include "table/lake.h"
#include "table/value.h"

namespace d3l {
namespace {

Table MakeSample() {
  auto r = Table::FromRows("gp", {"Practice", "City", "Patients"},
                           {{"Radclife", "Manchester", "1202"},
                            {"Blackfriars", "Salford", "3572"},
                            {"Bolton Medical", "Bolton", "2210"},
                            {"", "Salford", "-"}});
  return std::move(r).ValueOrDie();
}

TEST(ValueTest, NullDetection) {
  EXPECT_TRUE(IsNullCell(""));
  EXPECT_TRUE(IsNullCell("  "));
  EXPECT_TRUE(IsNullCell("-"));
  EXPECT_TRUE(IsNullCell("N/A"));
  EXPECT_TRUE(IsNullCell("null"));
  EXPECT_TRUE(IsNullCell("NaN"));
  EXPECT_FALSE(IsNullCell("0"));
  EXPECT_FALSE(IsNullCell("none at all"));
}

TEST(ValueTest, EveryNanSpellingIsNull) {
  // ParseDouble (std::from_chars) reads all of these as NaN; none may reach
  // a numeric sample.
  for (const char* cell :
       {"nan", "NAN", "-nan", "-NaN", " -nan ", "nan(1)", "-nan(ind)", "n,an"}) {
    ASSERT_TRUE(ParseDouble(cell).has_value()) << cell;
    EXPECT_TRUE(std::isnan(*ParseDouble(cell))) << cell;
    EXPECT_TRUE(IsNullCell(cell)) << cell;
    EXPECT_FALSE(CellAsNumber(cell).has_value()) << cell;
  }
  // Cells that merely start like NaN, and infinities, stay values.
  for (const char* cell : {"Nancy", "nano", "-n", "n/a/b", "inf", "-inf"}) {
    EXPECT_FALSE(IsNullCell(cell)) << cell;
  }
}

TEST(TableTest, NanCellsAreNullsNotNumbers) {
  auto r = Table::FromRows("readings", {"Reading"},
                           {{"1.5"}, {"-nan"}, {"2.5"}, {"-NaN"}, {"nan(1)"}, {"4"}});
  Table t = std::move(r).ValueOrDie();
  EXPECT_EQ(t.column(0).type(), ColumnType::kNumeric);
  EXPECT_EQ(t.column(0).null_count(), 3u);
  const std::vector<double> ext = t.column(0).NumericExtent();
  EXPECT_EQ(ext, (std::vector<double>{1.5, 2.5, 4}));
}

TEST(ValueTest, CellAsNumber) {
  EXPECT_DOUBLE_EQ(*CellAsNumber("3.5"), 3.5);
  EXPECT_FALSE(CellAsNumber("-").has_value());
  EXPECT_FALSE(CellAsNumber("abc").has_value());
}

TEST(TableTest, BasicShape) {
  Table t = MakeSample();
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.column(0).name(), "Practice");
  EXPECT_EQ(t.ColumnIndex("City"), 1);
  EXPECT_EQ(t.ColumnIndex("missing"), -1);
}

TEST(TableTest, TypeInference) {
  Table t = MakeSample();
  EXPECT_EQ(t.column(0).type(), ColumnType::kString);
  EXPECT_EQ(t.column(2).type(), ColumnType::kNumeric);
}

TEST(TableTest, NullAndDistinctCounts) {
  Table t = MakeSample();
  EXPECT_EQ(t.column(0).null_count(), 1u);
  EXPECT_EQ(t.column(2).null_count(), 1u);
  EXPECT_EQ(t.column(1).distinct_count(), 3u);  // Manchester, Salford, Bolton
}

TEST(TableTest, NumericExtentSkipsNonNumbers) {
  Table t = MakeSample();
  auto ext = t.column(2).NumericExtent();
  ASSERT_EQ(ext.size(), 3u);
  EXPECT_DOUBLE_EQ(ext[0], 1202);
}

TEST(TableTest, TextExtentSkipsNulls) {
  Table t = MakeSample();
  EXPECT_EQ(t.column(0).TextExtent().size(), 3u);
}

TEST(TableTest, StatsRecomputedAfterAppend) {
  Table t = MakeSample();
  EXPECT_EQ(t.column(1).distinct_count(), 3u);
  ASSERT_TRUE(t.AddRow({"New Practice", "Wigan", "50"}).ok());
  EXPECT_EQ(t.column(1).distinct_count(), 4u);
}

TEST(TableTest, AddColumnAfterRowsFails) {
  Table t = MakeSample();
  EXPECT_TRUE(t.AddColumn("Late").IsInvalidArgument());
}

TEST(TableTest, DuplicateColumnFails) {
  Table t("x");
  ASSERT_TRUE(t.AddColumn("A").ok());
  EXPECT_TRUE(t.AddColumn("A").IsAlreadyExists());
}

TEST(TableTest, ArityMismatchFails) {
  Table t = MakeSample();
  EXPECT_TRUE(t.AddRow({"only", "two"}).IsInvalidArgument());
}

TEST(TableTest, ProjectAndSelect) {
  Table t = MakeSample();
  Table p = t.Project({0, 2}, "proj");
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(1).name(), "Patients");
  EXPECT_EQ(p.num_rows(), 4u);

  Table s = t.SelectRows({1, 2}, "sel");
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.column(0).cell(0), "Blackfriars");
}

TEST(TableTest, MemoryUsagePositive) {
  EXPECT_GT(MakeSample().MemoryUsage(), 0u);
}

TEST(LakeTest, AddAndLookup) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeSample()).ok());
  EXPECT_EQ(lake.size(), 1u);
  EXPECT_EQ(lake.TableIndex("gp"), 0);
  EXPECT_EQ(lake.TableIndex("nope"), -1);
  EXPECT_TRUE(lake.AddTable(MakeSample()).IsAlreadyExists());
}

TEST(LakeTest, Stats) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeSample()).ok());
  Table t2 = std::move(Table::FromRows("t2", {"A", "B"}, {{"1", "2"}, {"3", "4"}}))
                 .ValueOrDie();
  ASSERT_TRUE(lake.AddTable(std::move(t2)).ok());
  LakeStats s = lake.Stats();
  EXPECT_EQ(s.num_tables, 2u);
  EXPECT_EQ(s.num_attributes, 5u);
  EXPECT_DOUBLE_EQ(s.avg_arity, 2.5);
  EXPECT_EQ(s.max_arity, 3);
  EXPECT_EQ(s.num_numeric_attributes, 3u);  // Patients + A + B
  EXPECT_GT(s.total_bytes, 0u);
}

}  // namespace
}  // namespace d3l
