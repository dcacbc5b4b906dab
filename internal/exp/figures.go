package exp

import (
	"fmt"
	"math/rand"

	"readys/internal/core"
	"readys/internal/taskgraph"
)

// Figure3 regenerates the data of the paper's Figure 3: the makespan
// improvement of READYS over HEFT and over MCT for the three kernels
// (columns), T ∈ {2, 4, 8} (rows) and the σ sweep, on 2 CPUs + 2 GPUs.
// Ratios above 1 mean READYS wins. The agents are the committed checkpoints
// in modelsDir; a missing one is an error.
func Figure3(modelsDir string) (*Table, error) {
	tab := &Table{
		Title:  "Figure 3: makespan improvement over HEFT and MCT (2 CPUs + 2 GPUs)",
		Header: []string{"kernel", "T", "sigma", "readys_ms", "heft_ms", "mct_ms", "improve_vs_heft", "improve_vs_mct"},
	}
	for _, kind := range []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR} {
		for _, T := range []int{2, 4, 8} {
			spec := DefaultAgentSpec(kind, T, 2, 2)
			agent, err := LoadAgent(spec, modelsDir)
			if err != nil {
				return nil, fmt.Errorf("exp: figure 3 %s: %w", spec.Name(), err)
			}
			pts, err := Compare(agent, kind, T, 2, 2, Sigmas, EvalRuns, 42)
			if err != nil {
				return nil, fmt.Errorf("exp: figure 3 %s: %w", spec.Name(), err)
			}
			for _, pt := range pts {
				tab.AddRow(kind.String(), fmt.Sprint(T), F(pt.Sigma),
					F(pt.READYS.Mean), F(pt.HEFT.Mean), F(pt.MCT.Mean),
					F(pt.ImproveHEFT), F(pt.ImproveMCT))
			}
		}
	}
	return tab, nil
}

// TransferFigure regenerates one of Figures 4, 5 or 6: agents trained on
// Cholesky T ∈ {4, 6, 8} are applied unchanged to Cholesky T ∈ {10, 12} on
// the given platform, and compared to HEFT and MCT across σ. The agents are
// the committed checkpoints in modelsDir; a missing one is an error.
//   - Figure 4: 4 CPUs
//   - Figure 5: 2 CPUs + 2 GPUs
//   - Figure 6: 4 GPUs
func TransferFigure(modelsDir string, numCPU, numGPU int) (*Table, error) {
	tab := &Table{
		Title:  fmt.Sprintf("Transfer learning on %dCPU+%dGPU: Cholesky, trained T∈{4,6,8}, tested T∈{10,12}", numCPU, numGPU),
		Header: []string{"train_T", "test_T", "sigma", "readys_ms", "heft_ms", "mct_ms", "improve_vs_heft", "improve_vs_mct"},
	}
	for _, trainT := range []int{4, 6, 8} {
		spec := DefaultAgentSpec(taskgraph.Cholesky, trainT, numCPU, numGPU)
		agent, err := LoadAgent(spec, modelsDir)
		if err != nil {
			return nil, fmt.Errorf("exp: transfer %s: %w", spec.Name(), err)
		}
		for _, testT := range []int{10, 12} {
			pts, err := Compare(agent, taskgraph.Cholesky, testT, numCPU, numGPU, Sigmas, EvalRuns, 43)
			if err != nil {
				return nil, fmt.Errorf("exp: transfer %s to T=%d: %w", spec.Name(), testT, err)
			}
			for _, pt := range pts {
				tab.AddRow(fmt.Sprint(trainT), fmt.Sprint(testT), F(pt.Sigma),
					F(pt.READYS.Mean), F(pt.HEFT.Mean), F(pt.MCT.Mean),
					F(pt.ImproveHEFT), F(pt.ImproveMCT))
			}
		}
	}
	return tab, nil
}

// Figure4 is the 4-CPU transfer experiment.
func Figure4(modelsDir string) (*Table, error) { return TransferFigure(modelsDir, 4, 0) }

// Figure5 is the 2-CPU + 2-GPU transfer experiment.
func Figure5(modelsDir string) (*Table, error) { return TransferFigure(modelsDir, 2, 2) }

// Figure6 is the 4-GPU transfer experiment.
func Figure6(modelsDir string) (*Table, error) { return TransferFigure(modelsDir, 0, 4) }

// InferencePoint is one row of the Figure 7 experiment.
type InferencePoint struct {
	T               int
	Tasks           int
	MeanWindow      float64
	MeanInferenceMs Summary
}

// Figure7Sizes and Figure7Runs are the defaults of the inference-time figure
// (readys-fig -fig 7).
var Figure7Sizes = []int{2, 4, 6, 8, 10, 12}

const Figure7Runs = 10

// Figure7 measures the mean wall-clock inference time per scheduling decision
// on Cholesky DAGs of growing size (99% confidence interval, as in the
// paper), together with the mean number of tasks in the window. One untrained
// agent is used — inference cost does not depend on the weights. Both come
// from the policy's DecideStats: forward time and window rows, each over
// every decision, memo hits included. A run that fails fails the figure, and
// so do fewer than one run.
func Figure7(sizes []int, runs int) (*Table, []InferencePoint, error) {
	if err := CheckCount("runs", runs, 1); err != nil {
		return nil, nil, fmt.Errorf("exp: figure 7: %w", err)
	}
	tab := &Table{
		Title:  "Figure 7: mean inference time per decision (Cholesky, 2 CPUs + 2 GPUs)",
		Header: []string{"T", "tasks", "mean_window_tasks", "mean_inference_ms", "ci99_ms"},
	}
	agent := core.NewAgent(core.Config{Window: 2, Layers: 2, Hidden: 32, Seed: 1})
	var points []InferencePoint
	for _, T := range sizes {
		prob := core.NewProblem(taskgraph.Cholesky, T, 2, 2, 0.1)
		var perDecisionMs []float64
		var windowSum, windowCnt float64
		for run := 0; run < runs; run++ {
			pol := core.NewPolicy(agent)
			if _, err := prob.Simulate(pol, rand.New(rand.NewSource(int64(run)))); err != nil {
				return nil, nil, fmt.Errorf("exp: figure 7 T=%d run %d: %w", T, run, err)
			}
			st := pol.Stats
			perDecisionMs = append(perDecisionMs,
				float64(st.ForwardTime.Nanoseconds())/1e6/float64(st.Decisions))
			windowSum += float64(st.WindowRows)
			windowCnt += float64(st.Decisions)
		}
		s := SummariseCI(perDecisionMs, 2.58)
		pt := InferencePoint{
			T:               T,
			Tasks:           taskgraph.CholeskyTaskCount(T),
			MeanWindow:      windowSum / windowCnt,
			MeanInferenceMs: s,
		}
		points = append(points, pt)
		tab.AddRow(fmt.Sprint(T), fmt.Sprint(pt.Tasks), F(pt.MeanWindow), F(s.Mean), F(s.CI))
	}
	return tab, points, nil
}
