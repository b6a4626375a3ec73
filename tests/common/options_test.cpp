#include "common/options.h"

#include <gtest/gtest.h>

namespace dpfs {
namespace {

Options ParseArgs(const std::vector<const char*>& argv) {
  return Options::Parse(static_cast<int>(argv.size()), argv.data()).value();
}

TEST(OptionsTest, EqualsForm) {
  const Options opts = ParseArgs({"prog", "--count=5", "--name=test"});
  EXPECT_EQ(opts.GetInt("count", 0), 5);
  EXPECT_EQ(opts.GetString("name", ""), "test");
}

TEST(OptionsTest, SpaceForm) {
  const Options opts = ParseArgs({"prog", "--count", "7"});
  EXPECT_EQ(opts.GetInt("count", 0), 7);
}

TEST(OptionsTest, BooleanFlag) {
  const Options opts = ParseArgs({"prog", "--verbose", "--combine=false"});
  EXPECT_TRUE(opts.GetBool("verbose", false));
  EXPECT_FALSE(opts.GetBool("combine", true));
  EXPECT_TRUE(opts.GetBool("missing", true));
}

TEST(OptionsTest, Positional) {
  const Options opts = ParseArgs({"prog", "input.txt", "--flag", "output.txt"});
  // "--flag output.txt" consumes output.txt as the flag value.
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "input.txt");
  EXPECT_EQ(opts.GetString("flag", ""), "output.txt");
}

TEST(OptionsTest, DoubleDashTerminator) {
  const Options opts = ParseArgs({"prog", "--a=1", "--", "--b=2", "c"});
  EXPECT_TRUE(opts.Has("a"));
  EXPECT_FALSE(opts.Has("b"));
  ASSERT_EQ(opts.positional().size(), 2u);
  EXPECT_EQ(opts.positional()[0], "--b=2");
}

TEST(OptionsTest, DoubleFlag) {
  const Options opts = ParseArgs({"prog", "--ratio=2.5"});
  EXPECT_DOUBLE_EQ(opts.GetDouble("ratio", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(opts.GetDouble("other", 1.25), 1.25);
}

TEST(OptionsTest, MalformedNumberFallsBack) {
  const Options opts = ParseArgs({"prog", "--count=abc"});
  EXPECT_EQ(opts.GetInt("count", 42), 42);
}

TEST(OptionsTest, CheckFlagsAcceptsTheFlagsAProgramReads) {
  const Options opts = ParseArgs(
      {"prog", "input", "--metadb", "/m", "--port", "65535", "--verbose"});
  EXPECT_TRUE(
      opts.CheckFlags({{"metadb"}, {"port", 65535}, {"verbose"}, {"unused"}})
          .ok());
  // Positional arguments are not flags.
  EXPECT_TRUE(ParseArgs({"prog", "a", "b"}).CheckFlags({}).ok());
}

TEST(OptionsTest, CheckFlagsNamesAnUnknownFlag) {
  const Options opts =
      ParseArgs({"prog", "--metadb", "/m", "--metadb-shards", "4"});
  const Status status = opts.CheckFlags({{"metadb"}, {"c"}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--metadb-shards"), std::string::npos);
}

TEST(OptionsTest, CheckFlagsRejectsIntegersThatDoNotParseOrFit) {
  const std::vector<Options::Flag> known = {{"port", 65535}};
  for (const char* bad : {"abc", "70000", "-1", "1.5", ""}) {
    const Options opts = ParseArgs({"prog", "--port", bad});
    const Status status = opts.CheckFlags(known);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("--port"), std::string::npos) << bad;
  }
  // A bare integer flag parses as the boolean "true".
  EXPECT_FALSE(ParseArgs({"prog", "--port"}).CheckFlags(known).ok());
  EXPECT_TRUE(ParseArgs({"prog", "--port=0"}).CheckFlags(known).ok());
}

}  // namespace
}  // namespace dpfs
