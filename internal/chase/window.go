package chase

import (
	"indep/internal/attrset"
	"indep/internal/relation"
)

// TotalProjection returns the X-total projection of the chased universal
// relation: for every row whose X columns all resolved to constants, the
// projection of those constants onto X (deduplicated). This is the paper's
// window function [X] evaluated on the representative instance — call it
// after Chase has run to fixpoint on the padded state. Rows with a variable
// left in some X column carry no information about X and are skipped.
func (e *Engine) TotalProjection(x attrset.Set) *relation.Instance {
	cols := x.Attrs()
	out := relation.NewBuilder(len(cols), 0, true)
	t := make(relation.Tuple, len(cols))
rows:
	for _, row := range e.rows {
		for i, a := range cols {
			r := e.find(row[a])
			if e.kind[r] != constSym {
				continue rows
			}
			t[i] = e.val[r]
		}
		out.Append(t)
	}
	return out.Instance(x)
}
