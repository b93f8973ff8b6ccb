package report

import (
	"math"
	"strings"
	"time"

	"powerdiv/internal/trace"
)

// sparkLevels are the eighth-block characters used by Spark.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Spark renders a series as a unicode sparkline of the given width,
// scaled between the series' min and max. A constant series renders at
// mid height; an empty series renders as an empty string.
func Spark(s *trace.Series, width int) string {
	if s.Len() == 0 || width <= 0 {
		return ""
	}
	lo, hi := s.Min(), s.Max()
	var b strings.Builder
	start, end := s.Start(), s.End()
	span := end - start
	for i := 0; i < width; i++ {
		var at time.Duration
		if width == 1 {
			at = start
		} else {
			at = start + time.Duration(int64(span)*int64(i)/int64(width-1))
		}
		v, ok := s.ValueAt(at)
		if !ok {
			b.WriteRune(' ')
			continue
		}
		level := len(sparkLevels) / 2
		if hi > lo {
			frac := (v - lo) / (hi - lo)
			level = int(math.Round(frac * float64(len(sparkLevels)-1)))
			if level < 0 {
				level = 0
			}
			if level >= len(sparkLevels) {
				level = len(sparkLevels) - 1
			}
		}
		b.WriteRune(sparkLevels[level])
	}
	return b.String()
}
