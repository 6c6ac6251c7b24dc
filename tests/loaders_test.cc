#include "data/loaders.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace bolton {
namespace {

class LoadersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "loaders_test_file.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(LoadersTest, LibsvmRoundTrip) {
  Dataset ds(3, 2);
  ds.Add(Vector{0.5, 0.0, -1.25}, +1);
  ds.Add(Vector{0.0, 2.0, 0.0}, -1);
  ASSERT_TRUE(SaveLibsvm(ds, path_).ok());

  auto loaded = LoadLibsvm(path_, 3);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].x, ds[0].x);
  EXPECT_EQ(loaded.value()[0].label, +1);
  EXPECT_EQ(loaded.value()[1].x, ds[1].x);
  EXPECT_EQ(loaded.value()[1].label, -1);
}

TEST_F(LoadersTest, LibsvmInfersDimension) {
  WriteFile("1 1:0.5 4:1.0\n-1 2:0.25\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().dim(), 4u);
  EXPECT_DOUBLE_EQ(loaded.value()[0].x[3], 1.0);
  EXPECT_DOUBLE_EQ(loaded.value()[1].x[1], 0.25);
}

TEST_F(LoadersTest, LibsvmMapsZeroOneLabels) {
  WriteFile("0 1:1.0\n1 1:2.0\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, LibsvmSkipsCommentsAndBlanks) {
  WriteFile("# header comment\n\n1 1:1.0\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST_F(LoadersTest, LibsvmRejectsMalformedFeature) {
  WriteFile("1 1-0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, LibsvmRejectsZeroBasedIndex) {
  WriteFile("1 0:0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, LibsvmRejectsIndexBeyondDeclaredDim) {
  WriteFile("1 5:0.5\n");
  EXPECT_EQ(LoadLibsvm(path_, 3).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LoadersTest, LibsvmMissingFileIsIOError) {
  EXPECT_EQ(LoadLibsvm("/nonexistent/file").status().code(),
            StatusCode::kIOError);
}

TEST_F(LoadersTest, LibsvmEmptyFileIsError) {
  WriteFile("");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, CsvParsesDenseRows) {
  WriteFile("0.5,1.5,-1\n0.25,0.75,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().dim(), 2u);
  EXPECT_EQ(loaded.value()[0].x, (Vector{0.5, 1.5}));
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, CsvSkipsHeaderRow) {
  WriteFile("f1,f2,label\n0.5,1.5,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST_F(LoadersTest, CsvMapsZeroOneLabels) {
  WriteFile("1.0,0\n2.0,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, CsvRejectsRaggedRows) {
  WriteFile("1.0,2.0,1\n3.0,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvRejectsFractionalLabels) {
  WriteFile("1.0,0.5\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvMulticlassKeepsClassIds) {
  WriteFile("1.0,0\n2.0,1\n3.0,2\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_classes(), 3);
  EXPECT_EQ(loaded.value()[2].label, 2);
}

// ---------------------------------------------------------------------------
// Robustness regressions: malformed rows must fail with row/column context
// instead of silently skipping, and non-finite values must never reach the
// gradient path.
// ---------------------------------------------------------------------------

TEST_F(LoadersTest, LibsvmRejectsNonFiniteValuesWithLineContext) {
  // strtod happily parses these; the loader must not.
  for (const char* bad : {"1 1:nan\n", "1 1:inf\n", "1 1:-inf\n"}) {
    WriteFile(bad);
    auto loaded = LoadLibsvm(path_);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("non-finite"),
              std::string::npos);
  }
  // The line number counts physical lines, comments included.
  WriteFile("# comment\n1 1:0.5\n1 2:nan\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST_F(LoadersTest, LibsvmRejectsNonFiniteLabel) {
  WriteFile("nan 1:0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, CsvRejectsNonFiniteValuesWithRowColumnContext) {
  WriteFile("0.5,1.5,1\n0.25,nan,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2, column 2"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("non-finite"), std::string::npos);

  WriteFile("inf,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvMalformedDataRowErrorsInsteadOfSilentSkip) {
  // The first row carries numeric fields, so it is DATA with a bad column —
  // the old header heuristic silently dropped it.
  WriteFile("0.5,oops,1\n0.25,0.75,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1, column 2"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("non-numeric"), std::string::npos);
}

TEST_F(LoadersTest, CsvMalformedLaterRowReportsRowAndColumn) {
  WriteFile("f1,f2,label\n0.5,1.5,1\n0.25,zebra,0\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3, column 2"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(LoadersTest, CsvStillSkipsAllTextHeader) {
  // A genuine header (no numeric field) on row one is still skipped; a
  // second header-looking row is an error.
  WriteFile("alpha,beta,label\n1.0,2.0,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 1u);

  WriteFile("alpha,beta,label\nalpha,beta,label\n1.0,2.0,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, LoaderFailpointsInjectIOErrors) {
  WriteFile("1 1:0.5\n-1 2:0.25\n");
  ASSERT_TRUE(FailpointRegistry::Default().Configure("loader.open:error").ok());
  auto open_fail = LoadLibsvm(path_);
  ASSERT_FALSE(open_fail.ok());
  EXPECT_EQ(open_fail.status().code(), StatusCode::kIOError);
  EXPECT_NE(open_fail.status().message().find("failpoint"),
            std::string::npos);

  // "1in2" fires on the second data row of this file.
  ASSERT_TRUE(FailpointRegistry::Default().Configure("loader.row:1in2").ok());
  EXPECT_FALSE(LoadLibsvm(path_).ok());
  FailpointRegistry::Default().Clear();
  EXPECT_TRUE(LoadLibsvm(path_).ok());
}

}  // namespace
}  // namespace bolton
