#pragma once

// Dead letters: quarantined tuples (DESIGN.md "Data-plane robustness").
//
// A tuple the IngestGate rejects, or the husk of a frame a transport
// receiver could not trust, is not dropped on the floor: it is wrapped with
// its typed RejectReason and recorded, on the rejecting thread, into the
// pipeline's dead-letter Recorder (stream/recorder.h), which counts every
// letter by reason and retains the newest for forensics.  The conservation
// invariant the e2e tests assert follows directly:
//
//     accepted + quarantined == ingested        (IngestGate counters)
//     dead_letters == quarantined + CRC husks   (recorder vs gate + server)

#include "spectra/validate.h"
#include "stream/tuple.h"

namespace astro::stream {

/// One quarantined observation plus why it was quarantined.
struct DeadLetter {
  DataTuple tuple;
  spectra::RejectReason reason = spectra::RejectReason::kNone;
};

}  // namespace astro::stream
