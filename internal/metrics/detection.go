package metrics

import (
	"fmt"
	"sort"
)

// Box is an axis-aligned bounding box with a class label and, for
// predictions, a confidence score. Coordinates are normalized to [0, 1].
type Box struct {
	X1, Y1, X2, Y2 float64
	Class          int
	Score          float64
}

// Area returns the box area (zero for degenerate boxes).
func (b Box) Area() float64 {
	w := b.X2 - b.X1
	h := b.Y2 - b.Y1
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// IoU returns the intersection-over-union of two boxes.
func IoU(a, b Box) float64 {
	ix1 := maxF(a.X1, b.X1)
	iy1 := maxF(a.Y1, b.Y1)
	ix2 := minF(a.X2, b.X2)
	iy2 := minF(a.Y2, b.Y2)
	iw := ix2 - ix1
	ih := iy2 - iy1
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Detection ties a set of predicted boxes to a sample index.
type Detection struct {
	SampleIndex int
	Boxes       []Box
}

// GroundTruth ties the annotated boxes to a sample index.
type GroundTruth struct {
	SampleIndex int
	Boxes       []Box
}

// MeanAveragePrecision computes class-averaged AP at the given IoU threshold
// (COCO-style greedy matching, all-point interpolation). The detection task
// in the paper reports mAP on COCO; 0.5 is the threshold used here.
func MeanAveragePrecision(detections []Detection, truths []GroundTruth, iouThreshold float64) (float64, error) {
	if iouThreshold <= 0 || iouThreshold > 1 {
		return 0, fmt.Errorf("metrics: IoU threshold %v outside (0,1]", iouThreshold)
	}
	if len(truths) == 0 {
		return 0, fmt.Errorf("metrics: no ground truth provided")
	}

	gtBySample := make(map[int][]Box, len(truths))
	totalGT := make(map[int]int)
	for _, t := range truths {
		gtBySample[t.SampleIndex] = t.Boxes
		for _, b := range t.Boxes {
			totalGT[b.Class]++
		}
	}

	type scoredDet struct {
		sample int
		box    Box
	}
	detsByClass := make(map[int][]scoredDet)
	for _, d := range detections {
		for _, b := range d.Boxes {
			detsByClass[b.Class] = append(detsByClass[b.Class], scoredDet{sample: d.SampleIndex, box: b})
		}
	}

	// Classes in ascending order: the mean is a float sum, and summing in
	// map order would let its last bit vary from run to run.
	classList := make([]int, 0, len(totalGT))
	for class := range totalGT {
		classList = append(classList, class)
	}
	sort.Ints(classList)

	var apSum float64
	for _, class := range classList {
		nGT := totalGT[class]
		dets := detsByClass[class]
		sort.SliceStable(dets, func(i, j int) bool { return dets[i].box.Score > dets[j].box.Score })

		matched := make(map[int][]bool) // sample -> per-GT-box matched flag
		tp := make([]int, len(dets))
		fp := make([]int, len(dets))
		for i, d := range dets {
			gts := gtBySample[d.sample]
			if matched[d.sample] == nil {
				matched[d.sample] = make([]bool, len(gts))
			}
			bestIoU := 0.0
			bestJ := -1
			for j, g := range gts {
				if g.Class != class {
					continue
				}
				iou := IoU(d.box, g)
				if iou > bestIoU {
					bestIoU = iou
					bestJ = j
				}
			}
			if bestJ >= 0 && bestIoU >= iouThreshold && !matched[d.sample][bestJ] {
				matched[d.sample][bestJ] = true
				tp[i] = 1
			} else {
				fp[i] = 1
			}
		}

		// Precision-recall curve and all-point interpolated AP.
		var ap float64
		cumTP, cumFP := 0, 0
		prevRecall := 0.0
		maxPrecisionFrom := make([]float64, len(dets)+1)
		precisions := make([]float64, len(dets))
		recalls := make([]float64, len(dets))
		for i := range dets {
			cumTP += tp[i]
			cumFP += fp[i]
			precisions[i] = float64(cumTP) / float64(cumTP+cumFP)
			recalls[i] = float64(cumTP) / float64(nGT)
		}
		// Interpolate precision: max precision at recall >= r.
		for i := len(dets) - 1; i >= 0; i-- {
			maxPrecisionFrom[i] = maxF(maxPrecisionFrom[i+1], precisions[i])
		}
		for i := range dets {
			ap += (recalls[i] - prevRecall) * maxPrecisionFrom[i]
			prevRecall = recalls[i]
		}
		apSum += ap
	}
	if len(classList) == 0 {
		return 0, fmt.Errorf("metrics: ground truth holds no boxes")
	}
	return apSum / float64(len(classList)), nil
}
