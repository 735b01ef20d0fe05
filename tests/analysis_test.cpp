#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/chains.hpp"
#include "analysis/csv.hpp"
#include "analysis/facts.hpp"
#include "analysis/events.hpp"
#include "analysis/report.hpp"
#include "analysis/timeseries.hpp"
#include "analysis/transitions.hpp"

namespace weakkeys::analysis {
namespace {

using bn::BigInt;
using netsim::HostRecord;
using netsim::Ipv4;
using netsim::ScanDataset;
using netsim::ScanSnapshot;
using util::Date;

netsim::CertHandle make_cert(const std::string& vendor, std::uint64_t modulus,
                             const std::string& issuer_cn = "") {
  auto c = std::make_shared<cert::Certificate>();
  c->subject.add("CN", "host");
  c->subject.add("O", vendor);
  if (issuer_cn.empty()) {
    c->issuer = c->subject;
  } else {
    c->issuer.add("CN", issuer_cn);
  }
  c->key.n = BigInt(modulus);
  c->key.e = BigInt(65537);
  return c;
}

ScanSnapshot snapshot(const Date& date, const char* source) {
  ScanSnapshot snap;
  snap.date = date;
  snap.source = source;
  return snap;
}

HostRecord record(std::uint32_t ip, netsim::CertHandle cert) {
  return HostRecord{Ipv4(ip), std::move(cert), ""};
}

/// Hand-built facts over `ds`: each certificate labeled by its O= field,
/// and vulnerable when its modulus is 1001.
CertificateFacts org_facts(const ScanDataset& ds) {
  CertificateFacts facts;
  facts.index = netsim::index_certificates(ds);
  for (std::size_t c = 0; c < facts.index.size(); ++c) {
    const auto& cert = facts.index.first_record(ds, c).cert();
    const std::string org = cert.subject.get("O");
    facts.label_of.push_back(org.empty() ? CertificateFacts::kUnlabeled
                                         : facts.intern({org, "", "subject"}));
    facts.vulnerable.push_back(cert.key.n == BigInt(1001));
  }
  return facts;
}

/// Three monthly snapshots; vendor "V" has 3, 4, then 2 hosts; modulus 1001
/// is vulnerable and appears on one host throughout.
ScanDataset sample_dataset() {
  ScanDataset ds;
  const auto vuln = make_cert("V", 1001);
  const auto clean1 = make_cert("V", 2001);
  const auto clean2 = make_cert("V", 2003);
  const auto clean3 = make_cert("V", 2005);
  const auto other = make_cert("W", 3001);

  ScanSnapshot s1 = snapshot(Date(2014, 1, 15), "Test");
  s1.records = {record(1, vuln), record(2, clean1), record(3, clean2),
                record(9, other)};
  ScanSnapshot s2 = snapshot(Date(2014, 2, 15), "Test");
  s2.records = {record(1, vuln), record(2, clean1), record(3, clean2),
                record(4, clean3)};
  ScanSnapshot s3 = snapshot(Date(2014, 6, 15), "Test");
  s3.records = {record(1, vuln), record(2, clean1)};
  ds.snapshots = {s1, s2, s3};
  return ds;
}

// ---------------------------------------------------------------- facts ----

TEST(CertificateFacts, LabelPrecedenceIsCliqueThenSubjectThenExtrapolation) {
  ScanSnapshot snap = snapshot(Date(2014, 1, 15), "Test");
  const auto unnamed = [](std::uint64_t modulus) {
    auto c = std::make_shared<cert::Certificate>();
    c->subject.add("CN", "host");
    c->key.n = BigInt(modulus);
    return netsim::CertHandle(c);
  };
  snap.records = {
      record(1, make_cert("Siemens", 11)),  // clique member
      record(2, make_cert("V", 13)),        // subject beats pool
      record(3, unnamed(13)),               // extrapolated
      record(4, unnamed(17)),               // factored, no vendor
      record(5, make_cert("V", 19)),        // not factored
  };
  ScanDataset ds;
  ds.snapshots = {snap};
  netsim::CertificateIndex index = netsim::index_certificates(ds);
  std::vector<std::optional<fingerprint::VendorLabel>> subject(index.size());
  for (std::size_t c = 0; c < index.size(); ++c) {
    const std::string org = index.first_record(ds, c).cert().subject.get("O");
    if (!org.empty()) subject[c] = fingerprint::VendorLabel{org, "", "subject"};
  }
  const auto id = [&](std::uint64_t n) {
    return index.find_modulus(ds, BigInt(n));
  };
  const std::vector<FactoredKey> factored = {
      {id(11), true, "X"}, {id(13), false, "X"}, {id(17), false, ""}};

  const CertificateFacts facts =
      build_certificate_facts(std::move(index), subject, factored);
  const std::vector<fingerprint::VendorLabel> labels = {
      {"IBM", "RSA-II", "prime-clique"},
      {"V", "", "subject"},
      {"X", "", "shared-prime"}};
  EXPECT_EQ(facts.labels, labels);
  constexpr std::uint32_t kNo = CertificateFacts::kUnlabeled;
  EXPECT_EQ(facts.label_of, (std::vector<std::uint32_t>{0, 1, 2, kNo, 1}));
  EXPECT_EQ(facts.vulnerable, (std::vector<std::uint8_t>{1, 1, 1, 1, 0}));
  EXPECT_EQ(facts.label_id(netsim::CertificateIndex::kNone),
            CertificateFacts::kUnlabeled);
  EXPECT_FALSE(facts.is_vulnerable(netsim::CertificateIndex::kNone));
}

// --------------------------------------------------------- TimeSeries ----

TEST(TimeSeries, VendorCountsPerSnapshot) {
  const ScanDataset ds = sample_dataset();
  const TimeSeriesBuilder builder(ds, org_facts(ds));
  const VendorSeries series = builder.vendor_series("V");
  ASSERT_EQ(series.points.size(), 3u);
  EXPECT_EQ(series.points[0].total_hosts, 3u);
  EXPECT_EQ(series.points[1].total_hosts, 4u);
  EXPECT_EQ(series.points[2].total_hosts, 2u);
  for (const auto& p : series.points) EXPECT_EQ(p.vulnerable_hosts, 1u);
  EXPECT_EQ(series.peak_total(), 4u);
  EXPECT_EQ(series.peak_vulnerable(), 1u);
}

TEST(TimeSeries, OverallIncludesUnlabeled) {
  const ScanDataset ds = sample_dataset();
  const TimeSeriesBuilder builder(ds, org_facts(ds));
  const VendorSeries series = builder.overall_series();
  EXPECT_EQ(series.points[0].total_hosts, 4u);  // includes vendor W
}

TEST(TimeSeries, VendorsRankedByVulnerability) {
  const ScanDataset ds = sample_dataset();
  const TimeSeriesBuilder builder(ds, org_facts(ds));
  const auto vendors = builder.vendors();
  ASSERT_EQ(vendors.size(), 2u);
  EXPECT_EQ(vendors[0], "V");  // vulnerable hits rank first
}

TEST(TimeSeries, AtOrBefore) {
  const ScanDataset ds = sample_dataset();
  const VendorSeries s =
      TimeSeriesBuilder(ds, org_facts(ds)).vendor_series("V");
  EXPECT_EQ(s.at_or_before(Date(2014, 3, 1))->date, Date(2014, 2, 15));
  EXPECT_EQ(s.at_or_before(Date(2014, 1, 15))->date, Date(2014, 1, 15));
  EXPECT_EQ(s.at_or_before(Date(2013, 12, 31)), nullptr);
}

// ------------------------------------------------------------- chains ----

TEST(Chains, DropsIntermediateAtSameIp) {
  ScanSnapshot snap = snapshot(Date(2014, 1, 15), "Rapid7");
  const auto ca = make_cert("CA Org", 5001);        // self-signed CA
  auto ca_subject_cn = ca->subject.to_string();
  auto leaf = std::make_shared<cert::Certificate>();
  leaf->subject.add("CN", "www.example.com");
  leaf->issuer = ca->subject;  // issued by the CA
  leaf->key.n = BigInt(7001);
  leaf->key.e = BigInt(65537);

  snap.records = {record(1, leaf), record(1, ca),
                  record(2, make_cert("V", 1001))};
  const ScanSnapshot filtered = exclude_intermediates(snap);
  ASSERT_EQ(filtered.records.size(), 2u);
  for (const auto& rec : filtered.records) {
    EXPECT_NE(rec.cert().key.n, BigInt(5001));
  }
}

TEST(Chains, KeepsCaCertAtUnrelatedIp) {
  ScanSnapshot snap = snapshot(Date(2014, 1, 15), "Rapid7");
  const auto ca = make_cert("CA Org", 5001);
  auto leaf = std::make_shared<cert::Certificate>();
  leaf->subject.add("CN", "www.example.com");
  leaf->issuer = ca->subject;
  leaf->key.n = BigInt(7001);
  leaf->key.e = BigInt(65537);
  // CA appears at a *different* IP: no chain there, keep it.
  snap.records = {record(1, leaf), record(2, ca)};
  EXPECT_EQ(exclude_intermediates(snap).records.size(), 2u);
}

// -------------------------------------------------------- transitions ----

TEST(Transitions, CountsDirectionalSwitches) {
  ScanDataset ds;
  const auto vuln_cert = make_cert("V", 1001);
  const auto clean_cert = make_cert("V", 2001);
  // ip 1: vulnerable -> clean. ip 2: clean -> vulnerable.
  // ip 3: vulnerable throughout. ip 4: flaps twice.
  for (int month = 0; month < 4; ++month) {
    ScanSnapshot snap = snapshot(Date(2014, 1 + month, 15), "Test");
    snap.records = {
        record(1, month < 2 ? vuln_cert : clean_cert),
        record(2, month < 2 ? clean_cert : vuln_cert),
        record(3, vuln_cert),
        record(4, month % 2 == 0 ? vuln_cert : clean_cert),
    };
    ds.snapshots.push_back(std::move(snap));
  }
  const auto counts = count_transitions(ds, "V", org_facts(ds));
  EXPECT_EQ(counts.ips_ever, 4u);
  EXPECT_EQ(counts.ips_ever_vulnerable, 4u);
  EXPECT_EQ(counts.vulnerable_to_clean, 1u);
  EXPECT_EQ(counts.clean_to_vulnerable, 1u);
  EXPECT_EQ(counts.multiple_switches, 1u);
}

TEST(Transitions, OtherVendorsExcluded) {
  const ScanDataset ds = sample_dataset();
  const auto counts = count_transitions(ds, "W", org_facts(ds));
  EXPECT_EQ(counts.ips_ever, 1u);
  EXPECT_EQ(counts.ips_ever_vulnerable, 0u);
}

// ------------------------------------------------------------- events ----

TEST(Events, HeartbleedWindowDelta) {
  const ScanDataset ds = sample_dataset();
  const VendorSeries series =
      TimeSeriesBuilder(ds, org_facts(ds)).vendor_series("V");
  const auto delta = event_window_delta(series, Date(2014, 3, 1), 2);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->total_before, 4u);   // 2014-02 snapshot
  EXPECT_EQ(delta->total_after, 2u);    // 2014-06 snapshot
  EXPECT_DOUBLE_EQ(delta->total_drop_fraction(), 0.5);
}

TEST(Events, DeltaRequiresBothSides) {
  const ScanDataset ds = sample_dataset();
  const VendorSeries series =
      TimeSeriesBuilder(ds, org_facts(ds)).vendor_series("V");
  EXPECT_FALSE(event_window_delta(series, Date(2013, 1, 1), 2).has_value());
  EXPECT_FALSE(event_window_delta(series, Date(2016, 1, 1), 2).has_value());
}

TEST(Events, EolOnsetFindsPeak) {
  VendorSeries series;
  series.vendor = "Cisco";
  series.model = "RV082";
  for (int m = 0; m < 10; ++m) {
    // Peak at month 5.
    const std::size_t total = static_cast<std::size_t>(100 + 10 * m - (m > 5 ? 25 * (m - 5) : 0));
    series.points.push_back(
        {Date(2013, 1 + m, 15), "Test", total, 0});
  }
  const auto onset = eol_onset(series, "RV082", Date(2013, 5, 1));
  EXPECT_EQ(onset.peak_date, Date(2013, 6, 15));
  EXPECT_EQ(onset.peak_to_eol_months, 1);
  EXPECT_EQ(onset.peak_total, 150u);
  EXPECT_EQ(onset.final_total, series.points.back().total_hosts);
}

// ------------------------------------------------------------- report ----

TEST(Report, TextTableAlignsColumns) {
  TextTable table({"name", "count"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta-long-name", "22"});
  table.add_rule();
  table.add_row({"total", "23"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| beta-long-name"), std::string::npos);
  // All lines equal width.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    if (width == 0) width = eol - pos;
    EXPECT_EQ(eol - pos, width);
    pos = eol + 1;
  }
}

TEST(Report, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1441437), "1,441,437");
  EXPECT_EQ(with_commas(1526222329ULL), "1,526,222,329");
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(Csv, SingleSeriesRows) {
  const ScanDataset ds = sample_dataset();
  const VendorSeries series =
      TimeSeriesBuilder(ds, org_facts(ds)).vendor_series("V");
  std::ostringstream os;
  write_series_csv(os, series);
  const std::string out = os.str();
  EXPECT_NE(out.find("date,source,total_hosts,vulnerable_hosts\n"),
            std::string::npos);
  EXPECT_NE(out.find("2014-01-15,Test,3,1\n"), std::string::npos);
  EXPECT_NE(out.find("2014-02-15,Test,4,1\n"), std::string::npos);
  EXPECT_NE(out.find("2014-06-15,Test,2,1\n"), std::string::npos);
}

TEST(Csv, MultiSeriesJoinsAndPadsGaps) {
  const ScanDataset ds = sample_dataset();
  const TimeSeriesBuilder builder(ds, org_facts(ds));
  VendorSeries v = builder.vendor_series("V");
  VendorSeries w = builder.vendor_series("W");
  w.points.pop_back();  // make W miss the last snapshot
  w.points.erase(w.points.begin());  // ...and the first

  std::ostringstream os;
  write_multi_series_csv(os, {v, w});
  const std::string out = os.str();
  EXPECT_NE(out.find("V total"), std::string::npos);
  EXPECT_NE(out.find("W vulnerable"), std::string::npos);
  // First row: V present, W padded empty.
  EXPECT_NE(out.find("2014-01-15,Test,3,1,,\n"), std::string::npos);
  // Middle row: both present.
  EXPECT_NE(out.find("2014-02-15,Test,4,1,0,0\n"), std::string::npos);
}

TEST(Report, RenderSeriesIncludesEveryPoint) {
  const ScanDataset ds = sample_dataset();
  const VendorSeries series =
      TimeSeriesBuilder(ds, org_facts(ds)).vendor_series("V");
  const std::string out = render_series(series);
  EXPECT_NE(out.find("2014-01-15"), std::string::npos);
  EXPECT_NE(out.find("2014-02-15"), std::string::npos);
  EXPECT_NE(out.find("2014-06-15"), std::string::npos);
}

}  // namespace
}  // namespace weakkeys::analysis
