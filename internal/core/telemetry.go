package core

import (
	"hzccl/internal/cluster"
	"hzccl/internal/telemetry"
)

// Telemetry for the collective hot paths. Every compute stage routed
// through Collectives.work records a real wall-clock span into the
// histogram of its breakdown category (independently of the virtual-time
// charge, which is modelled at Rates), and every ring exchange counts
// the bytes it put on the wire, split into compressed and raw so the
// bytes-saved-on-the-ring figure falls out of two counters.
var (
	mStageCompressNS   = telemetry.H("core.stage.compress_ns", telemetry.DurationBuckets())
	mStageDecompressNS = telemetry.H("core.stage.decompress_ns", telemetry.DurationBuckets())
	mStageReduceRawNS  = telemetry.H("core.stage.reduce_raw_ns", telemetry.DurationBuckets())
	mStageReduceHomNS  = telemetry.H("core.stage.reduce_homomorphic_ns", telemetry.DurationBuckets())
	mStageOtherNS      = telemetry.H("core.stage.other_ns", telemetry.DurationBuckets())
	mStageSendRecvNS   = telemetry.H("core.stage.sendrecv_ns", telemetry.DurationBuckets())

	mRingSteps           = telemetry.C("core.ring.steps")
	mRingCompressedBytes = telemetry.C("core.ring.compressed_bytes")
	mRingRawBytes        = telemetry.C("core.ring.raw_bytes")
)

// stageOf maps a breakdown category to its span histogram and the rate it
// is charged at (DefaultRates when rates is nil).
func stageOf(cat cluster.Category, rates *Rates) (*telemetry.Histogram, float64) {
	if rates == nil {
		rates = &DefaultRates
	}
	switch cat {
	case cluster.CatCPR:
		return mStageCompressNS, rates.CPR
	case cluster.CatDPR:
		return mStageDecompressNS, rates.DPR
	case cluster.CatHPR:
		return mStageReduceHomNS, rates.HPR
	case cluster.CatCPT:
		return mStageReduceRawNS, rates.CPT
	}
	return mStageOtherNS, rates.CPT
}

// countRingBytes attributes one ring exchange's outgoing payload to the
// compressed or raw wire-byte counter.
func countRingBytes(payload []byte, compressed bool) {
	mRingSteps.Inc()
	if compressed {
		mRingCompressedBytes.Add(int64(len(payload)))
	} else {
		mRingRawBytes.Add(int64(len(payload)))
	}
}
