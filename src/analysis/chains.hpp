// Chain reconstruction (paper Section 3.1).
//
// Rapid7's Sonar data surfaced intermediate certificates without explicit
// chaining; the paper reconstructed chains per IP and kept only the lowest
// certificate. We do the same: within one snapshot, a record is dropped if
// its certificate's subject is the *issuer* of another certificate observed
// at the same IP (i.e. it sits above a leaf we also saw).
#pragma once

#include "netsim/dataset.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::util {
class ThreadPool;
}

namespace weakkeys::analysis {

/// `snap` with intermediate (issuer) records removed. Takes the snapshot by
/// value: pass an rvalue to filter in place, an lvalue to keep a copy.
netsim::ScanSnapshot exclude_intermediates(netsim::ScanSnapshot snap);

/// Applies exclude_intermediates to every snapshot (by value, as above):
/// one task per snapshot on `pool` when one is given, each polling
/// `cancel`. Every certificate's subject and issuer DN is rendered once,
/// however many records show it, and survivors keep their order.
netsim::ScanDataset exclude_intermediates(
    netsim::ScanDataset dataset, util::ThreadPool* pool = nullptr,
    const util::CancellationToken* cancel = nullptr);

}  // namespace weakkeys::analysis
