package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelZeroValue(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	end := k.Run()
	if end != 30 {
		t.Errorf("Run() = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d (insertion order must win ties)", i, order[i], i)
		}
	}
}

func TestNowAdvancesDuringEvents(t *testing.T) {
	k := NewKernel()
	var seen []Time
	k.Schedule(7, func() { seen = append(seen, k.Now()) })
	k.Schedule(42, func() { seen = append(seen, k.Now()) })
	k.Run()
	if len(seen) != 2 || seen[0] != 7 || seen[1] != 42 {
		t.Fatalf("seen = %v, want [7 42]", seen)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() {
		k.After(5, func() { fired = append(fired, k.Now()) })
	})
	k.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("fired = %v, want [15]", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(50, func() {})
	})
	k.Run()
}

func TestScheduleNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil action did not panic")
		}
	}()
	NewKernel().Schedule(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewKernel().After(-1, func() {})
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.Schedule(10, func() { ran = true })
	k.Cancel(e)
	k.Run()
	if ran {
		t.Error("cancelled event still ran")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.Cancel(e)
	k.Cancel(e) // must not panic
	k.Cancel(nil)
	k.Run()
}

func TestCancelDuringRun(t *testing.T) {
	k := NewKernel()
	ran := false
	var victim *Event
	k.Schedule(5, func() { k.Cancel(victim) })
	victim = k.Schedule(10, func() { ran = true })
	k.Run()
	if ran {
		t.Error("event cancelled mid-run still ran")
	}
}

// TestNextTimeSkipsCancelledHead peeks a bucket, cancels the event at
// its head and peeks again: the cancelled event is dropped, and the next
// live one is reported.
func TestNextTimeSkipsCancelledHead(t *testing.T) {
	k := NewKernel()
	head := k.Schedule(10, func() {})
	k.Schedule(20, func() {})
	if at, ok := k.NextTime(); !ok || at != 10 {
		t.Fatalf("NextTime() = %v, %v, want 10, true", at, ok)
	}
	k.Cancel(head)
	if at, ok := k.NextTime(); !ok || at != 20 {
		t.Fatalf("NextTime() after cancelling the head = %v, %v, want 20, true", at, ok)
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() { fired = append(fired, 10) })
	k.Schedule(20, func() { fired = append(fired, 20) })
	k.Schedule(30, func() { fired = append(fired, 30) })
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 3 {
		t.Errorf("resumed run fired %v, want all three", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	k := NewKernel()
	k.RunUntil(500)
	if k.Now() != 500 {
		t.Errorf("Now() = %v, want 500", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (Stop must halt promptly)", count)
	}
	if k.Pending() != 7 {
		t.Errorf("Pending() = %d, want 7", k.Pending())
	}
}

func TestExecutedCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.Run()
	if k.Executed() != 5 {
		t.Errorf("Executed() = %d, want 5", k.Executed())
	}
}

// TestDeterministicInterleaving replays a pseudo-random scheduling pattern
// twice and requires identical execution order.
func TestDeterministicInterleaving(t *testing.T) {
	replay := func(seed uint64) []int {
		k := NewKernel()
		src := NewSource(seed)
		var order []int
		id := 0
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			n := src.Intn(3) + 1
			for i := 0; i < n; i++ {
				myID := id
				id++
				k.After(Time(src.Intn(50)), func() {
					order = append(order, myID)
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		k.Run()
		return order
	}
	a, b := replay(42), replay(42)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any batch of (time, id) pairs, execution order is sorted by
// time with ties in insertion order.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		k := NewKernel()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, raw := range times {
			at := Time(raw)
			i := i
			k.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		k.Run()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{5 * Millisecond, "5ms"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeNanoseconds(t *testing.T) {
	if got := (2500 * Picosecond).Nanoseconds(); got != 2.5 {
		t.Errorf("Nanoseconds() = %v, want 2.5", got)
	}
}
