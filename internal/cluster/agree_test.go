package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// agreeObs is what one rank takes away from an agreement round.
type agreeObs struct {
	val   int
	dead  uint64
	leave float64
	class string // "ok", "rank-failed", "timeout" or the error text
}

func (o agreeObs) String() string {
	return fmt.Sprintf("{val %d dead %b leave %.9g %s}", o.val, o.dead, o.leave, o.class)
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRankFailed):
		return "rank-failed"
	case errors.Is(err, ErrRecvTimeout):
		return "timeout"
	}
	return err.Error()
}

// TestAgreementMatchesAcrossFabrics runs one table of agreement rounds on
// the in-process fabric and on a loopback TCP mesh. Every rank starts at
// clock ID ms and contributes 10·(ID+1); a row says who exits before the
// round, who straggles and who gives up after contributing. Both fabrics
// must give every rank the same agreed value, dead set, leave clock and
// error class — and that must be the row's: the maximum clock plus
// α·⌈log₂ participants⌉ for a completed round, the rank's own clock for a
// failed one. The rank-0 rows elect rank 1 (rank 2 when both 0 and 1
// are gone).
func TestAgreementMatchesAcrossFabrics(t *testing.T) {
	alpha := Config{}.withDefaults().Latency.Seconds()
	ms := func(id int) float64 { return float64(id) * 1e-3 }
	leave := func(maxID, participants int) float64 {
		return ms(maxID) + alpha*math.Ceil(math.Log2(float64(participants)))
	}
	failed := func(dead uint64) agreeObs { return agreeObs{dead: dead, class: "rank-failed"} }
	rows := []struct {
		name      string
		n         int
		tolerant  bool
		exit      uint64 // ranks that return before the round
		straggler int    // arrives 50 ms late (-1: none)
		quitter   int    // contributes, gives up waiting and exits (-1: none)
		want      agreeObs
	}{
		{"live/skewed/3 ranks", 3, false, 0, -1, -1, agreeObs{val: 30, leave: leave(2, 3), class: "ok"}},
		{"live/tolerant", 4, true, 0, -1, -1, agreeObs{val: 40, leave: leave(3, 4), class: "ok"}},
		{"straggler", 4, false, 0, 2, -1, agreeObs{val: 40, leave: leave(3, 4), class: "ok"}},
		{"coordinator straggles", 4, false, 0, 0, -1, agreeObs{val: 40, leave: leave(3, 4), class: "ok"}},
		{"member exits/classic", 4, false, rankBit(2), -1, -1, failed(rankBit(2))},
		{"member exits/tolerant", 4, true, rankBit(2), -1, -1, agreeObs{val: 40, dead: rankBit(2), leave: leave(3, 3), class: "ok"}},
		{"rank 0 exits/classic", 4, false, rankBit(0), -1, -1, failed(rankBit(0))},
		{"rank 0 exits/tolerant", 4, true, rankBit(0), -1, -1, agreeObs{val: 40, dead: rankBit(0), leave: leave(3, 3), class: "ok"}},
		{"ranks 0 and 1 exit/classic", 4, false, rankBit(0) | rankBit(1), -1, -1, failed(rankBit(0) | rankBit(1))},
		{"ranks 0 and 1 exit/tolerant", 4, true, rankBit(0) | rankBit(1), -1, -1, agreeObs{val: 40, dead: rankBit(0) | rankBit(1), leave: leave(3, 2), class: "ok"}},
		{"member exits after contributing", 4, false, 0, -1, 3, agreeObs{val: 40, leave: leave(3, 4), class: "ok"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// A generous deadline: only the quitter's row waits one out,
			// and that one is short (25 ms × (2+2) = 100 ms), so the
			// quitter is gone long before its peers arrive at 500 ms.
			cfg := Config{RecvTimeout: time.Second}
			if row.quitter >= 0 {
				cfg.RecvTimeout, cfg.RetryBudget = 25*time.Millisecond, 2
			}
			byFabric := map[string][]agreeObs{}
			for _, fabric := range []string{"chan", "tcp"} {
				obs := make([]agreeObs, row.n)
				err := onFabric(t, fabric, row.n, cfg, func(r *Rank) error {
					if row.exit&rankBit(r.ID) != 0 {
						return nil
					}
					r.Elapse(CatOther, ms(r.ID))
					switch {
					case r.ID == row.straggler:
						time.Sleep(50 * time.Millisecond)
					case row.quitter >= 0 && r.ID != row.quitter:
						time.Sleep(500 * time.Millisecond)
					}
					val, dead, err := r.agree(10*(r.ID+1), 0, row.tolerant)
					obs[r.ID] = agreeObs{val, dead, r.Now(), errClass(err)}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", fabric, err)
				}
				for id, o := range obs {
					if row.exit&rankBit(id) != 0 {
						continue
					}
					want := row.want
					if id == row.quitter {
						want = agreeObs{class: "timeout"}
					}
					if want.class != "ok" {
						want.leave = ms(id)
					}
					if o.val != want.val || o.dead != want.dead || math.Abs(o.leave-want.leave) > 1e-12 || o.class != want.class {
						t.Errorf("%s rank %d: %v, want %v", fabric, id, o, want)
					}
				}
				byFabric[fabric] = obs
			}
			for id := range byFabric["chan"] {
				if c, p := byFabric["chan"][id], byFabric["tcp"][id]; c != p {
					t.Errorf("rank %d: in-process %v, tcp %v", id, c, p)
				}
			}
		})
	}
}
