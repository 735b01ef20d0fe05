// Fixed-key man-in-the-middle detection (paper Section 3.3.3).
//
// The Internet Rimon middlebox substituted one fixed RSA public key into the
// self-signed certificates served by its customers' devices, leaving the
// rest of each certificate untouched. The externally visible signature: one
// modulus appearing at many IPs under many *different* certificate subjects,
// with signatures that no longer verify — and never factored (the ISP's key
// is sound).
#pragma once

#include <string>
#include <vector>

#include "netsim/dataset.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::fingerprint {

struct MitmCandidate {
  bn::BigInt modulus;
  std::size_t distinct_ips = 0;
  std::size_t distinct_subjects = 0;
  std::size_t records = 0;
  bool ever_factored = false;
};

struct MitmOptions {
  std::size_t min_ips = 8;
  std::size_t min_subjects = 4;
};

/// Scans all HTTPS records for fixed-key substitution candidates. Moduli in
/// `factored_hex` (batch-GCD hits, e.g. the IBM clique) are reported with
/// ever_factored=true so callers can separate degenerate generators from
/// middleboxes. Renders each certificate's subject once, groups the
/// certificates by the index's modulus ids, and scans the snapshots on
/// `pool` when one is given, polling `cancel`; the result does not depend
/// on the pool. `index`, when given, must index `dataset`'s HTTPS snapshots
/// (index_certificates with or without the HTTPS filter); without one the
/// call builds it.
std::vector<MitmCandidate> detect_fixed_key_mitm(
    const netsim::ScanDataset& dataset,
    const std::vector<std::string>& factored_hex, const MitmOptions& options,
    util::ThreadPool* pool = nullptr,
    const util::CancellationToken* cancel = nullptr,
    const netsim::CertificateIndex* index = nullptr);

}  // namespace weakkeys::fingerprint
