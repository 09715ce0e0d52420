#include "noc/io.hpp"

#include <gtest/gtest.h>

#include "noc/constraints.hpp"
#include "noc/generator.hpp"
#include "util/rng.hpp"

namespace moela::noc {
namespace {

TEST(DesignIo, RoundTripPreservesDesign) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(1);
  const NocDesign original = ops.random_design(rng);
  const NocDesign restored = design_from_string(design_to_string(original));
  EXPECT_EQ(original, restored);
  EXPECT_TRUE(is_feasible(spec, restored));
}

TEST(DesignIo, RoundTripOnPaperPlatform) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    const NocDesign d = ops.random_design(rng);
    EXPECT_EQ(d, design_from_string(design_to_string(d)));
  }
}

TEST(DesignIo, CommentsAndBlankLinesIgnored) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(3);
  const NocDesign d = ops.random_design(rng);
  std::string text = design_to_string(d);
  text = "# checkpoint from run 42\n\n" + text;
  EXPECT_EQ(d, design_from_string(text));
}

TEST(DesignIo, MalformedInputsThrow) {
  EXPECT_THROW(design_from_string(""), std::runtime_error);
  EXPECT_THROW(design_from_string("wrong-magic v1\n"), std::runtime_error);
  EXPECT_THROW(design_from_string("noc-design v2\n"), std::runtime_error);
  EXPECT_THROW(design_from_string("noc-design v1\nplacement\n"),
               std::runtime_error);
  EXPECT_THROW(
      design_from_string("noc-design v1\nplacement 0 1\nlinks 2\n0 1\n"),
      std::runtime_error);  // missing link line
  // Inputs that must not decode as some other design: every line holds
  // exactly what design_to_string writes.
  const char* const strict[] = {
      "noc-design v1\nplacement 0 1\nlinks x\n",
      "noc-design v1\nplacement 0 65536\nlinks 0\n",
      "noc-design v1\nplacement 0 -1\nlinks 0\n",
      "noc-design v1\nplacement 0 2x 1\nlinks 0\n",
      "noc-design v1\nplacement 0 1\nlinks 1\n0 70000\n",
      "noc-design v1\nplacement 0 1 x\nlinks 0\n",
      "noc-design v1\nplacement 0 1\nlinks 1\n0 1 1\n",
      "noc-design v1\nplacement 0 1\nlinks 1 1\n0 1\n",
      "noc-design v1 x\nplacement 0 1\nlinks 0\n",
      "noc-design v1\nplacement 0 1\nlinks 0\nlinks 0\n",
  };
  for (const char* text : strict) {
    EXPECT_THROW(design_from_string(text), std::runtime_error) << text;
  }
}

TEST(DesignIo, ReadDesignConsumesOneDesignFromTheFront) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(4);
  const NocDesign first = ops.random_design(rng);
  const NocDesign second = ops.random_design(rng);
  // Comment and blank lines may sit between any two lines.
  std::string first_text = design_to_string(first);
  first_text.insert(first_text.find("\nlinks") + 1, "  # links next\n\n");
  const std::string text = first_text + "# second\n" +
                           design_to_string(second) + "# end\n";
  std::string_view rest = text;
  EXPECT_EQ(read_design(rest), first);
  EXPECT_EQ(read_design(rest), second);
  EXPECT_EQ(rest, "# end\n");
  EXPECT_THROW(read_design(rest), std::runtime_error);
}

TEST(DesignIo, ParsedLinksAreCanonical) {
  const auto d = design_from_string(
      "noc-design v1\nplacement 0 1 2 3\nlinks 2\n3 1\n0 2\n");
  ASSERT_EQ(d.links.size(), 2u);
  EXPECT_EQ(d.links[0], Link(0, 2));
  EXPECT_EQ(d.links[1], Link(1, 3));
}

}  // namespace
}  // namespace moela::noc
