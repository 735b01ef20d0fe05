#include <gtest/gtest.h>

#include "analysis/scorecard.hpp"

namespace weakkeys::analysis {
namespace {

using bn::BigInt;
using netsim::ResponseClass;

netsim::CertHandle cert_for(const std::string& vendor, std::uint64_t modulus) {
  auto c = std::make_shared<cert::Certificate>();
  c->subject.add("CN", "host");
  c->subject.add("O", vendor);
  c->issuer = c->subject;
  c->key.n = BigInt(modulus);
  c->key.e = BigInt(65537);
  return c;
}

/// Vendor A (advisory): 4 vulnerable at peak, 1 at end.
/// Vendor B (no response): 4 vulnerable at peak, 1 at end. Same outcome —
/// the Section 5.2 non-correlation in miniature.
/// Vendor C (advisory): never vulnerable — excluded from scoring.
netsim::ScanDataset dataset() {
  netsim::ScanDataset ds;
  std::vector<netsim::CertHandle> a_vuln, b_vuln;
  for (std::uint64_t i = 0; i < 4; ++i) {
    a_vuln.push_back(cert_for("A", 100 + i));
    b_vuln.push_back(cert_for("B", 200 + i));
  }
  const auto c_clean = cert_for("C", 301);

  netsim::ScanSnapshot peak;
  peak.date = util::Date(2013, 1, 15);
  peak.source = "Test";
  std::uint32_t ip = 1;
  for (const auto& c : a_vuln) {
    peak.records.push_back({netsim::Ipv4(ip++), c, ""});
  }
  for (const auto& c : b_vuln) {
    peak.records.push_back({netsim::Ipv4(ip++), c, ""});
  }
  peak.records.push_back({netsim::Ipv4(ip++), c_clean, ""});

  netsim::ScanSnapshot end;
  end.date = util::Date(2016, 1, 15);
  end.source = "Test";
  end.records.push_back({netsim::Ipv4(1), a_vuln[0], ""});
  end.records.push_back({netsim::Ipv4(5), b_vuln[0], ""});
  end.records.push_back({netsim::Ipv4(9), c_clean, ""});
  ds.snapshots = {peak, end};
  return ds;
}

/// Hand-built facts over `ds`: each certificate labeled by its O= field;
/// every key of vendors A and B is vulnerable.
CertificateFacts facts(const netsim::ScanDataset& ds) {
  CertificateFacts out;
  out.index = netsim::index_certificates(ds);
  for (std::size_t c = 0; c < out.index.size(); ++c) {
    const std::string org =
        out.index.first_record(ds, c).cert().subject.get("O");
    out.label_of.push_back(out.intern({org, "", "subject"}));
    out.vulnerable.push_back(org == "A" || org == "B");
  }
  return out;
}

std::vector<netsim::VendorNotification> notifications() {
  return {
      {"A", ResponseClass::kPublicAdvisory, true, true, ""},
      {"B", ResponseClass::kNoResponse, true, true, ""},
      {"C", ResponseClass::kPublicAdvisory, true, true, ""},
  };
}

TEST(Scorecard, ScoresVendorsAndGroupsByClass) {
  const auto ds = dataset();
  const TimeSeriesBuilder builder(ds, facts(ds));
  const auto summary = build_scorecard(builder, notifications());

  ASSERT_EQ(summary.scores.size(), 2u);  // C excluded (never vulnerable)
  for (const auto& score : summary.scores) {
    EXPECT_EQ(score.peak_vulnerable, 4u);
    EXPECT_EQ(score.final_vulnerable, 1u);
    EXPECT_DOUBLE_EQ(score.remediation_ratio(), 0.25);
  }
  // Identical outcomes => zero spread between class means.
  EXPECT_DOUBLE_EQ(summary.class_mean_spread, 0.0);
  EXPECT_DOUBLE_EQ(summary.overall_mean, 0.25);
  EXPECT_DOUBLE_EQ(
      summary.mean_ratio_by_class.at(ResponseClass::kPublicAdvisory), 0.25);
  EXPECT_DOUBLE_EQ(summary.mean_ratio_by_class.at(ResponseClass::kNoResponse),
                   0.25);
}

TEST(Scorecard, AliasesMapFingerprintNamesToTableNames) {
  const auto ds = dataset();
  const TimeSeriesBuilder builder(ds, facts(ds));
  // Notifications know vendor A as "Alpha Corp".
  std::vector<netsim::VendorNotification> notes = {
      {"Alpha Corp", ResponseClass::kPrivateResponse, true, true, ""},
  };
  const auto summary =
      build_scorecard(builder, notes, {{"A", "Alpha Corp"}});
  ASSERT_EQ(summary.scores.size(), 1u);
  EXPECT_EQ(summary.scores[0].vendor, "A");
  EXPECT_EQ(summary.scores[0].response, ResponseClass::kPrivateResponse);
}

TEST(Scorecard, UnnotifiedVendorsIgnored) {
  const auto ds = dataset();
  const TimeSeriesBuilder builder(ds, facts(ds));
  EXPECT_TRUE(build_scorecard(builder, {}).scores.empty());
}

}  // namespace
}  // namespace weakkeys::analysis
