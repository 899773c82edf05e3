// Output helpers: CSV, text tables, ASCII charts.
#include "io/ascii_chart.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "waveform/render.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace ssnkit::io;
using ssnkit::waveform::Waveform;
using ssnkit::waveform::ascii_chart;

TEST(Csv, HeaderAndRows) {
  CsvWriter csv({"n", "vmax"});
  csv.add_row({1.0, 0.25});
  csv.add_row({2.0, 0.4});
  std::ostringstream os;
  csv.write(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("n,vmax\n"), std::string::npos);
  EXPECT_NE(text.find("1,0.25"), std::string::npos);
  EXPECT_EQ(csv.row_count(), 2u);
}

TEST(Csv, SeventeenDigitsRoundTripEveryDouble) {
  // Every cell must parse back to the bits that were written: signed zeros,
  // the smallest subnormal, the largest finite value, a value past the
  // fixed-notation range, an inexact decimal, and random bit patterns.
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0, -0.0, Limits::denorm_min(),
                                -Limits::denorm_min(), Limits::max(),
                                -Limits::max(), 1e21, 0.1};
  std::mt19937_64 rng(20261021);
  while (values.size() < 4000) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  CsvWriter csv({"a", "b", "c", "d"});
  for (std::size_t i = 0; i < values.size(); i += 4)
    csv.add_row({values[i], values[i + 1], values[i + 2], values[i + 3]});
  std::ostringstream os;
  csv.write(os);

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "a,b,c,d");
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      ASSERT_LT(i, values.size());
      char* end = nullptr;
      const double back = std::strtod(cell.c_str(), &end);
      EXPECT_EQ(*end, '\0') << cell;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                std::bit_cast<std::uint64_t>(values[i]))
          << cell << " should be " << values[i];
      ++i;
    }
  }
  EXPECT_EQ(i, values.size());
}

TEST(Csv, WidthValidation) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(CsvWriter({}), std::invalid_argument);
}

TEST(Table, AlignedOutput) {
  TextTable t({"case", "v_max"});
  t.add_row({std::string("over"), std::string("0.81")});
  t.add_row({0.5, 0.123456789}, 4);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| case"), std::string::npos);
  EXPECT_NE(s.find("0.1235"), std::string::npos);
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
}

TEST(Table, SiFormat) {
  EXPECT_EQ(si_format(5e-9), "5n");
  EXPECT_EQ(si_format(1e-12), "1p");
  EXPECT_EQ(si_format(1.8e10, 3), "18G");
  EXPECT_EQ(si_format(0.0), "0");
  EXPECT_EQ(si_format(-3e-3), "-3m");
  EXPECT_EQ(si_format(42.0), "42");
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  const auto w = Waveform::from_function(
      [](double t) { return t * (1.0 - t); }, 0.0, 1.0, 64);
  ChartOptions opts;
  opts.title = "parabola";
  opts.y_label = "v";
  const std::string chart = ascii_chart(w, opts);
  EXPECT_NE(chart.find("parabola"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
}

TEST(AsciiChart, MultipleSeriesDistinctGlyphs) {
  const auto a = Waveform::from_function([](double t) { return t; }, 0.0, 1.0, 32);
  const auto b =
      Waveform::from_function([](double t) { return 1.0 - t; }, 0.0, 1.0, 32);
  const std::string chart = ascii_chart({&a, &b}, {"up", "down"});
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('+'), std::string::npos);
  EXPECT_NE(chart.find("up"), std::string::npos);
  EXPECT_NE(chart.find("down"), std::string::npos);
}

TEST(AsciiChart, XyChartAndValidation) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<std::vector<double>> ys{{0.1, 0.2, 0.3}};
  EXPECT_NO_THROW(ascii_xy_chart(x, ys, {"series"}));
  EXPECT_THROW(ascii_xy_chart(x, {{0.1}}, {"bad"}), std::invalid_argument);
  EXPECT_THROW(ascii_chart(std::vector<const Waveform*>{}, std::vector<std::string>{}),
               std::invalid_argument);
}

}  // namespace
