// Chain reconstruction (paper Section 3.1).
//
// Rapid7's Sonar data surfaced intermediate certificates without explicit
// chaining; the paper reconstructed chains per IP and kept only the lowest
// certificate. We do the same: within one snapshot, a record is dropped if
// its certificate's subject is the *issuer* of another certificate observed
// at the same IP (i.e. it sits above a leaf we also saw).
#pragma once

#include "netsim/dataset.hpp"

namespace weakkeys::analysis {

/// `snap` with intermediate (issuer) records removed. Takes the snapshot by
/// value: pass an rvalue to filter in place, an lvalue to keep a copy.
netsim::ScanSnapshot exclude_intermediates(netsim::ScanSnapshot snap);

/// Applies exclude_intermediates to every snapshot (by value, as above).
netsim::ScanDataset exclude_intermediates(netsim::ScanDataset dataset);

}  // namespace weakkeys::analysis
