/** @file Unit tests for string utilities and the CSV writer. */

#include "util/csv.h"
#include "util/string_utils.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(StringUtilsTest, FormatFixed)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
}

TEST(StringUtilsTest, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.896, 2), "89.60");
    EXPECT_EQ(formatPercent(1.0, 0), "100");
}

TEST(StringUtilsTest, Padding)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtilsTest, SplitString)
{
    const auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilsTest, SplitEmptyString)
{
    const auto parts = splitString("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(StringUtilsTest, StartsWith)
{
    EXPECT_TRUE(startsWith("--option", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(StringUtilsTest, ParseUnsigned)
{
    EXPECT_EQ(parseUnsigned("12345"), 12345u);
    EXPECT_EQ(parseUnsigned("0x10"), 16u);
    EXPECT_THROW(parseUnsigned("12abc"), std::runtime_error);
    EXPECT_THROW(parseUnsigned(""), std::runtime_error);
}

TEST(StringUtilsTest, ParseDouble)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5"), 2.5);
    EXPECT_THROW(parseDouble("xyz"), std::runtime_error);
}

class CsvWriterTest : public ::testing::Test
{
  protected:
    // Unique per test: the cases run concurrently under `ctest -j`,
    // and a shared path lets UnwritablePathIsFatal clobber a file
    // another case is reading.
    std::string path_ = ::testing::TempDir() + "/confsim_csv_" +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        ".csv";

    std::string
    readBack()
    {
        std::ifstream in(path_);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesPlainRows)
{
    {
        CsvWriter csv(path_);
        csv.writeRow({"a", "b", "c"});
        csv.writeRow({"1", "2", "3"});
    }
    EXPECT_EQ(readBack(), "a,b,c\n1,2,3\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCells)
{
    {
        CsvWriter csv(path_);
        csv.writeRow({"with,comma", "with\"quote", "plain"});
    }
    EXPECT_EQ(readBack(), "\"with,comma\",\"with\"\"quote\",plain\n");
}

TEST_F(CsvWriterTest, UnwritablePathIsFatal)
{
    // The writer creates missing parent directories, so an unwritable
    // path needs a parent that is a regular file, not a missing one.
    std::ofstream(path_) << "not a directory";
    EXPECT_THROW(CsvWriter(path_ + "/x.csv"), std::runtime_error);
}

TEST_F(CsvWriterTest, WriterLeftByAThrowPublishesNothing)
{
    try {
        CsvWriter csv(path_);
        csv.writeRow({"header"});
        throw std::runtime_error("the run failed");
    } catch (const std::runtime_error &) {
    }
    EXPECT_FALSE(std::filesystem::exists(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

} // namespace
} // namespace confsim
