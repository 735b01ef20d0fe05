#include "fingerprint/subject_rules.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace weakkeys::fingerprint {

std::optional<VendorLabel> SubjectRules::classify(
    const cert::Certificate& cert, const std::string& banner) const {
  for (const auto& rule : rules_) {
    if (auto label = rule.match(cert, banner)) return label;
  }
  return std::nullopt;
}

std::vector<std::optional<VendorLabel>> SubjectRules::classify_all(
    const netsim::ScanDataset& dataset, const netsim::CertificateIndex& index,
    util::ThreadPool* pool, const util::CancellationToken* cancel) const {
  std::vector<std::optional<VendorLabel>> labels(index.size());
  util::parallel_for_blocks(
      pool, index.size(), 256,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& rec = index.first_record(dataset, i);
          labels[i] = classify(rec.cert(), rec.banner);
        }
      },
      cancel);
  return labels;
}

namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool looks_like_ip(const std::string& s) {
  int dots = 0;
  for (char c : s) {
    if (c == '.') {
      ++dots;
    } else if (c < '0' || c > '9') {
      return false;
    }
  }
  return dots == 3 && !s.empty();
}

}  // namespace

SubjectRules SubjectRules::standard() {
  SubjectRules rules;

  // Juniper: every certificate carries the constant CN (Section 3.3.1); the
  // model is never identifiable from certificate data.
  rules.add_rule({"juniper-system-generated",
                  [](const cert::Certificate& c, const std::string&)
                      -> std::optional<VendorLabel> {
                    if (c.subject.get("CN") == "system generated")
                      return VendorLabel{"Juniper", "", "subject"};
                    return std::nullopt;
                  }});

  // McAfee SnapGear: all-default subject; identified via the management
  // console page served over HTTPS.
  rules.add_rule({"mcafee-snapgear-banner",
                  [](const cert::Certificate& c, const std::string& banner)
                      -> std::optional<VendorLabel> {
                    if (c.subject.get("CN") == "Default Common Name" &&
                        contains(banner, "SnapGear"))
                      return VendorLabel{"McAfee", "SnapGear", "banner"};
                    return std::nullopt;
                  }});

  // Fritz!Box: myfritz.net common names or the fritz.box SAN set.
  rules.add_rule(
      {"fritzbox-domains",
       [](const cert::Certificate& c,
          const std::string&) -> std::optional<VendorLabel> {
         if (ends_with(c.subject.get("CN"), ".myfritz.net"))
           return VendorLabel{"Fritz!Box", "", "subject"};
         for (const auto& san : c.san_dns) {
           if (san == "fritz.box" || ends_with(san, ".fritz.box") ||
               san == "myfritz.box" || san == "fritz.fonwlan.box")
             return VendorLabel{"Fritz!Box", "", "san"};
         }
         return std::nullopt;
       }});

  // Dell Imaging Group OU (the Fuji Xerox hardware line).
  rules.add_rule({"dell-imaging",
                  [](const cert::Certificate& c, const std::string&)
                      -> std::optional<VendorLabel> {
                    if (c.subject.get("OU") == "Dell Imaging Group")
                      return VendorLabel{"Dell", "Imaging", "subject"};
                    return std::nullopt;
                  }});

  // Generic O=vendor names (the bulk of labeled certificates). Cisco-style
  // subjects also put the model in OU.
  rules.add_rule(
      {"organization",
       [](const cert::Certificate& c,
          const std::string&) -> std::optional<VendorLabel> {
         const std::string org = c.subject.get("O");
         if (org.empty()) return std::nullopt;
         // Skip placeholder and unattributable organizations.
         if (org.rfind("Default", 0) == 0) return std::nullopt;
         if (org.rfind("Customer Organization", 0) == 0) return std::nullopt;
         if (org.rfind("Example ", 0) == 0) return std::nullopt;
         if (org.rfind('_', 0) == 0) return std::nullopt;
         return VendorLabel{org, c.subject.get("OU"), "subject"};
       }});

  // Subjects that are just an IP address deliberately fall through: they
  // cannot be attributed here, and the shared-prime extrapolation pass
  // (prime_pools.hpp) picks them up.
  return rules;
}

bool subject_is_bare_ip(const cert::Certificate& cert) {
  return cert.subject.attributes().size() == 1 &&
         looks_like_ip(cert.subject.get("CN"));
}

}  // namespace weakkeys::fingerprint
