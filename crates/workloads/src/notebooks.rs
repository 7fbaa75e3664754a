//! Generators for the 8 evaluation notebooks of Table 2.
//!
//! Each builder emits minipy cells shaped like the original notebook's
//! workflow: load → explore → transform → train → plot, with the
//! incremental-access and create/modify-balance traits of §2.2 and the
//! per-notebook quirks the experiments rely on (off-process tensors in
//! TorchGPU/Ray, an unserializable object in Qiskit, IPyFlow-hostile
//! control flow in StoreSales cell 27, out-of-order re-executions in the
//! in-progress notebooks).

use crate::{cell, NotebookSpec};

fn rows(scale: f64, base: usize) -> usize {
    ((base as f64 * scale) as usize).max(8)
}

fn payload(scale: f64, base: usize) -> usize {
    ((base as f64 * scale) as usize).max(64)
}

/// *Cluster* — cluster analysis with seaborn (24 cells, final).
/// Fig 23/24 style: granular cells, one model trained per cell into the
/// same variable group.
pub fn cluster(scale: f64) -> NotebookSpec {
    let n = rows(scale, 20_000);
    let mut cells = vec![
        cell(format!("df = read_csv('clusters', {n}, 12, 42)\n")),
        cell("print(df.describe())\n"),
        cell("print(df.shape)\n"),
        cell("X_scaled = df.copy()\n"),
        cell(format!(
            "pt = lib_obj('sk.PowerTransformer', {p}, 1)\npt.fit(1)\n",
            p = payload(scale, 4096)
        )),
        cell("X_scaled['c0'] = X_scaled['c0'] * 0.5 + 1.0\n"),
        cell("X_scaled['c1'] = X_scaled['c1'] * 2.0\n"),
        cell("cols = X_scaled.columns\n"),
        cell("n_init = 5\nrandom_seed = 42\nn_components_max = 10\nadditional_hyperparams = {'n_init': 5}\n"),
        cell("scores = []\nlabels = []\n"),
    ];
    // Granular model training (Fig 24): one model per cell, overwriting the
    // same variables each time.
    for k in 2..10 {
        cells.push(cell(format!(
            "model = lib_obj('sk.GaussianMixture', {p}, {k})\nmodel.fit({k})\nscore = model.score()\nbic{k} = score * 2.0\nscores.append(score)\n",
            p = payload(scale, 131_072)
        )));
    }
    cells.push(cell("best = max(scores)\n"));
    cells.push(cell(format!(
        "plot = lib_obj('sns.JointGrid', {p}, 9)\nplot.update(best)\n",
        p = payload(scale, 32_768)
    )));
    cells.push(cell("print(best)\n"));
    cells.push(cell("final_labels = model.predict(200)\n"));
    cells.push(cell("elapsed_s = 1.0\nnotes = 'bruteforce sweep'\nsummary = {'best': best, 'k': 9}\n"));
    cells.push(cell("print(summary)\n"));
    assert_eq!(cells.len(), 24);
    NotebookSpec {
        name: "Cluster",
        topic: "Cluster analysis",
        library: "seaborn",
        is_final: true,
        hidden_states: 0,
        out_of_order: 0,
        cells,
    }
}

/// *TPS* — random-forest tabular playground with sklearnex (49 cells,
/// final). Feature engineering creates columns; models overwrite a shared
/// variable group (Fig 25's create/modify balance).
pub fn tps(scale: f64) -> NotebookSpec {
    let n = rows(scale, 25_000);
    let mut cells = vec![
        cell("random_state = 42\nn_folds = 5\nn_estimators = 300\nmax_depth = 8\n"),
        cell(format!("train = read_csv('tps_train', {n}, 10, 11)\n")),
        cell(format!("test = read_csv('tps_test', {m}, 10, 12)\n", m = n / 4)),
        cell("print(train.shape)\nprint(test.shape)\n"),
        cell("print(train.describe())\n"),
        cell("target = train['c9']\n"),
        cell("features = train.drop('c9')\n"),
    ];
    // Feature engineering: one standalone feature array per cell (like the
    // real notebook, each cell touches a sliver of the state — Fig 25).
    for k in 0..8 {
        cells.push(cell(format!(
            "fe{k} = features['c{k}'] * features['c{next}'] + {k}.0\nfe{k}_mu = fe{k}.mean()\n",
            next = (k + 1) % 9
        )));
    }
    // In-place cleanup of the engineered features (modification phase).
    for k in 0..6 {
        cells.push(cell(format!("fe{k} -= fe{k}.mean()\n")));
    }
    cells.push(cell("fe_names = features.columns\nprint(len(fe_names))\n"));
    // Nondeterministic split (random train/test split — the classic
    // irreproducible cell).
    cells.push(cell(format!("split_noise = randn({q})\n", q = n.min(4096))));
    cells.push(cell("print(split_noise.mean())\n"));
    // Model sweep with timing cells interleaved.
    for k in 0..10 {
        cells.push(cell(format!(
            "rf = lib_obj('sk.RandomForestClassifier', {p}, {k})\nrf.fit({k})\n",
            p = payload(scale, 98_304)
        )));
        if k % 5 == 4 {
            cells.push(cell("cv_score = rf.score()\nprint(cv_score)\n"));
        }
    }
    // Manual cross-validation loop (the long, loop-heavy cells Fig 17
    // flags in TPS).
    cells.push(cell(
        "cv_sum = 0.0\nfor fold in range(2500):\n    cv_sum += (fold % 5) * 0.01 + cv_score * 0.001\n",
    ));
    cells.push(cell("preds = rf.predict(500)\npred_mu = preds.mean()\npred_sd = preds.std()\n"));
    cells.push(cell("submission = test.head(500)\n"));
    cells.push(cell("submission['pred'] = preds\n"));
    cells.push(cell("print(submission.shape)\n"));
    cells.push(cell(format!(
        "fig = lib_obj('plotly.Figure', {p}, 3)\nfig.update(cv_score)\n",
        p = payload(scale, 16_384)
    )));
    cells.push(cell("gc_hint = 0\n"));
    cells.push(cell("done = True\n"));
    cells.push(cell("print(done)\n"));
    while cells.len() < 49 {
        let k = cells.len();
        cells.push(cell(format!("audit{k} = cv_score * {k}.0\n")));
    }
    assert_eq!(cells.len(), 49);
    NotebookSpec {
        name: "TPS",
        topic: "Random forest",
        library: "intelex",
        is_final: true,
        hidden_states: 0,
        out_of_order: 0,
        cells,
    }
}

/// *Sklearn* — tweet text mining (44 cells, in-progress). The Fig 2/4
/// notebook: interleaved sentiment lists built by a loop, an in-place
/// mapping over one list, and out-of-order re-executions.
pub fn sklearn(scale: f64) -> NotebookSpec {
    let n_tweets = rows(scale, 4_000);
    let corpus_rows = rows(scale, 40_000);
    let mut cells = vec![
        cell(format!("corpus = read_csv('climatechange_tweets', {corpus_rows}, 12, 7)\n")),
        cell("data_dir = 'data/twitter'\n"),
        cell("print(corpus.shape)\n"),
        cell(format!(
            "texts = []\nfor k in range({n_tweets}):\n    texts.append('tweet about climate ' + str(k))\n"
        )),
        cell("print(len(texts))\n"),
        // Complex control flow in a loop (IPyFlow-hostile, §7.6).
        cell(format!(
            "moods = []\nfor k in range({n_tweets}):\n    if k % 3 == 0:\n        moods.append('sad')\n    elif k % 3 == 1:\n        moods.append('happy')\n    else:\n        moods.append('neutral')\n"
        )),
        cell("sad_ls = []\nhappy_ls = []\n"),
        // Fig 4 cell 3: interleaved construction.
        cell("for k in range(len(texts)):\n    if moods[k] == 'sad':\n        sad_ls.append(texts[k])\n    elif moods[k] == 'happy':\n        happy_ls.append(texts[k])\n"),
        cell("print(len(sad_ls))\nprint(len(happy_ls))\n"),
    ];
    // Fig 4 cell 4: the in-place mapping over sad_ls only.
    cells.push(cell("for k in range(len(sad_ls)):\n    sad_ls[k] = sad_ls[k].replace('tweet', 'tw')\n"));
    cells.push(cell("text_neg = sad_ls.copy()\n"));
    cells.push(cell("text_pos = happy_ls.copy()\n"));
    // Out-of-order / re-executed cells (in-progress trait): the mapping is
    // re-run after inspection.
    cells.push(cell("print(sad_ls[0])\n"));
    cells.push(cell("for k in range(len(sad_ls)):\n    sad_ls[k] = sad_ls[k].replace('climate', 'cl')\n"));
    // Vectorization + models.
    cells.push(cell(format!(
        "vec = lib_obj('sk.TfidfVectorizer', {p}, 1)\nvec.fit(len(text_neg))\n",
        p = payload(scale, 65_536)
    )));
    cells.push(cell(format!(
        "vec2 = lib_obj('sk.CountVectorizer', {p}, 2)\nvec2.fit(len(text_pos))\n",
        p = payload(scale, 65_536)
    )));
    for k in 0..8 {
        cells.push(cell(format!(
            "clf = lib_obj('sk.LogisticRegression', {p}, {k})\nclf.fit({k})\nacc = clf.score()\n",
            p = payload(scale, 49_152)
        )));
        if k % 2 == 0 {
            cells.push(cell("print(acc)\n"));
        }
    }
    cells.push(cell("aux = corpus.head(100)\n"));
    cells.push(cell("aux['flag'] = zeros(100)\n"));
    // The §7.5.1 test case: drop a column of the auxiliary dataframe.
    cells.push(cell("aux = aux.drop('c1')\n"));
    cells.push(cell("stopwords = {'the', 'a', 'of'}\nmin_df = 2\nmax_df = 0.95\nngram_lo = 1\nngram_hi = 2\n"));
    cells.push(cell("stopwords.add('and')\n"));
    cells.push(cell("counts = {}\nfor w in ['cl', 'tw', 'about']:\n    counts[w] = 0\n"));
    cells.push(cell("for k in range(len(sad_ls)):\n    if 'cl' in sad_ls[k]:\n        counts['cl'] += 1\n"));
    cells.push(cell("print(counts)\n"));
    cells.push(cell(format!(
        "wc_plot = lib_obj('plotly.Figure', {p}, 4)\nwc_plot.update(len(sad_ls))\n",
        p = payload(scale, 24_576)
    )));
    cells.push(cell("shared_view = text_neg\n"));
    cells.push(cell("n_neg = len(text_neg)\nn_pos = len(text_pos)\nbalance = n_neg - n_pos\nsummary = [n_neg, n_pos]\n"));
    cells.push(cell("print(summary)\n"));
    while cells.len() < 44 {
        let k = cells.len();
        cells.push(cell(format!("probe{k} = len(texts) + {k}\n")));
    }
    assert_eq!(cells.len(), 44);
    NotebookSpec {
        name: "Sklearn",
        topic: "Text mining",
        library: "sklearn",
        is_final: false,
        hidden_states: 1,
        out_of_order: 2,
        cells,
    }
}

/// *HW-LM* — linear-regression homework with NumPy (81 cells, final).
/// Many tiny cells over small arrays; ~170 variables; the loop-heavy cells
/// and read-only printing cells Fig 17 highlights.
pub fn hw_lm(scale: f64) -> NotebookSpec {
    let n = rows(scale, 1_000);
    let mut cells = vec![
        cell(format!("X = randn_seeded({n}, 1)\n")),
        cell(format!("noise = randn_seeded({n}, 2)\n")),
        cell("y = X * 3.0 + 0.5 + noise * 0.1\n"),
        cell(format!("X_train = X[:{t}]\ny_train = y[:{t}]\n", t = n * 8 / 10)),
        cell(format!("X_test = X[{t}:]\ny_test = y[{t}:]\n", t = n * 8 / 10)),
        cell("print(X_train.size)\n"),
        // The read-only printing cell called out in §7.6.
        cell("y_train[:10]\n"),
        cell("theta_w = 0.0\ntheta_b = 0.0\n"),
        cell("lr = 0.05\nepochs = 40\n"),
        cell("losses = []\n"),
        // Gradient-descent loop: complex looped control flow.
        cell(
            "for e in range(epochs):\n    pred = X_train * theta_w + theta_b\n    err = pred - y_train\n    gw = (err * X_train).mean()\n    gb = err.mean()\n    theta_w = theta_w - lr * gw\n    theta_b = theta_b - lr * gb\n    losses.append((err * err).mean())\n",
        ),
        cell("print(theta_w)\nprint(theta_b)\n"),
        cell("if len(losses) == 0:\n    losses.append(0.0)\ntrain_loss = losses[len(losses) - 1]\n"),
        cell("pred_test = X_test * theta_w + theta_b\n"),
        cell("test_err = pred_test - y_test\n"),
        cell("test_loss = (test_err * test_err).mean()\n"),
        cell("print(test_loss)\n"),
    ];
    // Polynomial-feature study: many small variables, two per cell.
    for d in 0..28 {
        cells.push(cell(format!(
            "feat{d} = X_train * {w:.1} + {d}.0\ncoef{d} = feat{d}.mean()\nsd{d} = feat{d}.std()\nrng{d} = feat{d}.max() - feat{d}.min()\n",
            w = 0.1 * (d + 1) as f64
        )));
        if d % 2 == 0 {
            cells.push(cell(format!("print(coef{d})\n")));
        }
    }
    cells.push(cell("coef_all = []\n"));
    for d in 0..8 {
        cells.push(cell(format!("coef_all.append(coef{d})\n")));
    }
    cells.push(cell("best_coef = max(coef_all + [coef0])\n"));
    cells.push(cell("ridge_w = theta_w * 0.9\n"));
    cells.push(cell("lasso_w = theta_w * 0.8\n"));
    cells.push(cell("models_summary = {'ols': theta_w, 'ridge': ridge_w, 'lasso': lasso_w}\n"));
    cells.push(cell("print(models_summary)\n"));
    cells.push(cell("alias_losses = losses\n"));
    cells.push(cell("final_report = [train_loss, test_loss, best_coef]\n"));
    cells.push(cell("print(final_report)\n"));
    while cells.len() < 81 {
        let k = cells.len();
        cells.push(cell(format!("metric{k} = test_loss * {k}.0\n")));
    }
    assert_eq!(cells.len(), 81);
    NotebookSpec {
        name: "HW-LM",
        topic: "Linear regression",
        library: "NumPy",
        is_final: true,
        hidden_states: 0,
        out_of_order: 0,
        cells,
    }
}

/// *StoreSales* — time-series forecasting with statsmodels (41 cells,
/// final). Auxiliary dataframes branch off the main one; SARIMAX models are
/// dynamically-generated-identity classes; cell 27 carries the nested
/// control flow that hangs IPyFlow (Table 6).
pub fn store_sales(scale: f64) -> NotebookSpec {
    let n = rows(scale, 25_000);
    let mut cells = vec![
        cell(format!("train = read_csv('store_sales', {n}, 8, 3)\n")),
        cell(format!("holidays = read_csv('holidays', {m}, 3, 4)\n", m = n / 50)),
        cell(format!("oil = read_csv('oil', {m}, 2, 5)\n", m = n / 50)),
        cell("print(train.shape)\n"),
        cell("sales = train['c0']\n"),
        cell("sales_mean = sales.mean()\n"),
        cell("train['c0'] = train['c0'] - sales_mean\n"),
        cell("aux_daily = train.head(365)\n"),
        cell("aux_weekly = train.head(52)\n"),
        cell("aux_monthly = train.head(12)\n"),
        cell("print(aux_daily.shape)\n"),
    ];
    for k in 0..6 {
        cells.push(cell(format!(
            "train['lag{k}'] = train['c{c}'] * 0.5\n",
            c = k % 8
        )));
    }
    cells.push(cell("trend = arange(365)\n"));
    cells.push(cell("seasonal = trend * 0.01\n"));
    cells.push(cell("aux_daily['trend'] = trend\n"));
    cells.push(cell(format!(
        "sarimax = lib_obj('sm.SARIMAX', {p}, 1)\nsarimax.fit(1)\n",
        p = payload(scale, 131_072)
    )));
    cells.push(cell("aic1 = sarimax.score()\n"));
    cells.push(cell(format!(
        "sarimax2 = lib_obj('sm.SARIMAX', {p}, 2)\nsarimax2.fit(2)\n",
        p = payload(scale, 131_072)
    )));
    cells.push(cell("aic2 = sarimax2.score()\n"));
    cells.push(cell("print(aic1)\nprint(aic2)\n"));
    cells.push(cell("forecast = sarimax.predict(365)\n"));
    cells.push(cell("residuals = forecast - seasonal\n"));
    // Cell 27: complex nested control flow — IPyFlow's failure case.
    cells.push(cell(
        "cv_acc = 0.0\nfor fold in range(400):\n    for step in range(80):\n        if (fold + step) % 3 == 0:\n            cv_acc += 0.001\n        elif step % 7 == 0:\n            cv_acc -= 0.0005\n",
    ));
    cells.push(cell("print(cv_acc)\n"));
    cells.push(cell(format!(
        "plot_fc = lib_obj('plotly.Figure', {p}, 6)\nplot_fc.update(cv_acc)\n",
        p = payload(scale, 49_152)
    )));
    cells.push(cell("metrics = {'aic1': aic1, 'aic2': aic2, 'cv': cv_acc}\n"));
    cells.push(cell("residual_std = residuals.std()\n"));
    cells.push(cell("print(residual_std)\n"));
    while cells.len() < 41 {
        let k = cells.len();
        cells.push(cell(format!("check{k} = residual_std + {k}.0\n")));
    }
    assert_eq!(cells.len(), 41);
    NotebookSpec {
        name: "StoreSales",
        topic: "TS analysis",
        library: "SM",
        is_final: true,
        hidden_states: 0,
        out_of_order: 0,
        cells,
    }
}

/// *Qiskit* — quantum-computing demo (85 cells, in-progress). Tiny state,
/// heavy shared referencing (circuits share gate lists), one unserializable
/// object (DumpSession's failure on this notebook), and many re-executed
/// plotting cells (91 hidden states, Fig 22).
pub fn qiskit(scale: f64) -> NotebookSpec {
    let _ = scale; // the Qiskit state is ~1 MB regardless of scale
    let mut cells = vec![
        cell("shots = 1024\n"),
        cell("backend = Object()\nbackend.name = 'aer_simulator'\n"),
        // An unserializable handle: DumpSession fails from here on (Fig 12).
        cell("noise_stream = make_generator()\n"),
    ];
    // Build circuits sharing gate lists (shared references -> merged
    // co-variables, Table 7's 51 vars vs 41 co-variables).
    for q in 0..10 {
        cells.push(cell(format!(
            "gates{q} = []\nqc{q} = Object()\nqc{q}.gates = gates{q}\nqc{q}.n = 2\n"
        )));
        cells.push(cell(format!("gates{q}.append('h0')\ngates{q}.append('cx01')\n")));
    }
    // Repeated draw cells (Fig 22: the same plotting cell re-executed with
    // minor adjustments). Each re-execution is a hidden state.
    let mut hidden = 0;
    for q in 0..8 {
        for attempt in 0..5 {
            cells.push(cell(format!(
                "draw{q} = lib_obj('plotly.Scatter', 2048, {seed})\ndraw{q}.update({attempt})\n",
                seed = q * 10 + attempt
            )));
            if attempt > 0 {
                hidden += 1;
            }
        }
    }
    cells.push(cell("counts = {'00': 498, '11': 526}\n"));
    cells.push(cell("total = counts['00'] + counts['11']\nprint(total)\n"));
    // Out-of-order adjustment of an earlier circuit.
    cells.push(cell("gates0.append('measure')\n"));
    cells.push(cell("bell_ok = counts['11'] > 400\nprint(bell_ok)\n"));
    while cells.len() < 85 {
        let k = cells.len();
        cells.push(cell(format!("calib{k} = shots % {m}\n", m = k + 1)));
    }
    assert_eq!(cells.len(), 85);
    NotebookSpec {
        name: "Qiskit",
        topic: "Quant. Computing",
        library: "Qiskit",
        is_final: false,
        hidden_states: hidden,
        out_of_order: 1,
        cells,
    }
}

/// *TorchGPU* — image classification with PyTorch (27 cells, final). The
/// big notebook: on-device tensors (off-process — the CRIU killers) plus a
/// heavyweight model checkpointed repeatedly.
pub fn torch_gpu(scale: f64) -> NotebookSpec {
    let tensor = payload(scale, 6_000_000);
    let model = payload(scale, 10_000_000);
    let mut cells = vec![
        cell("device = 'cuda:0'\n"),
        cell("batch_size = 64\nepochs = 4\nlr = 0.001\nmomentum = 0.9\nweight_decay = 0.0005\nnum_workers = 8\npin_memory = True\n"),
        cell(format!("train_images = lib_obj('torch.Tensor', {tensor}, 1)\n")),
        cell(format!("val_images = lib_obj('torch.Tensor', {t}, 2)\n", t = tensor / 4)),
        cell(format!("model = lib_obj('torchvision.ResNet34', {model}, 3)\n")),
        cell(format!("optimizer = lib_obj('torch.optim.Adam', {p}, 4)\n", p = payload(scale, 65_536))),
        cell("train_losses = []\nval_accs = []\nclasses = ['cat', 'dog', 'bird']\nmean_norm = 0.485\nstd_norm = 0.229\nlog_every = 50\n"),
        cell("print(device)\n"),
    ];
    for e in 0..4 {
        cells.push(cell(format!("model.fit({e})\noptimizer.update({e})\n")));
        cells.push(cell(format!("loss{e} = model.score()\ngrad_norm{e} = loss{e} * 0.1\ntrain_losses.append(loss{e})\n")));
        cells.push(cell(format!("acc{e} = model.score()\ntop5_{e} = acc{e} + 0.02\nval_accs.append(acc{e})\n")));
    }
    cells.push(cell("best_acc = max(val_accs)\nprint(best_acc)\n"));
    cells.push(cell("preds = model.predict(1000)\n"));
    cells.push(cell(format!(
        "curve = lib_obj('plotly.Figure', {p}, 9)\ncurve.update(best_acc)\n",
        p = payload(scale, 32_768)
    )));
    cells.push(cell("val_images.update(1)\n"));
    cells.push(cell("ckpt_path = 'weights/resnet34.pt'\nwall_time_s = 716.0\nreport = {'best': best_acc, 'epochs': 4}\n"));
    cells.push(cell("print(report)\n"));
    cells.push(cell("final = True\n"));
    assert_eq!(cells.len(), 27);
    NotebookSpec {
        name: "TorchGPU",
        topic: "Image classification",
        library: "PyTorch",
        is_final: true,
        hidden_states: 0,
        out_of_order: 0,
        cells,
    }
}

/// *Ray* — distributed-computing tutorial (20 cells, in-progress). Remote
/// datasets and actors live off-process (CRIU cannot dump them); Kishu
/// stores them via their reductions.
pub fn ray(scale: f64) -> NotebookSpec {
    let ds = payload(scale, 1_500_000);
    let mut cells = vec![
        cell("num_cpus = 8\nnum_gpus = 0\nobject_store_gb = 4\ndashboard_port = 8265\nnamespace_id = 'tutorial'\n"),
        cell(format!("ds = lib_obj('ray.data.Dataset', {ds}, 1)\n")),
        cell("print(num_cpus)\n"),
        cell("ds.transform(1)\n"),
        cell("ds.transform(2)\n"),
        cell(format!("ds2 = lib_obj('ray.data.Dataset', {d}, 2)\n", d = ds / 3)),
        cell(format!("actor = lib_obj('ray.Actor', {p}, 3)\n", p = payload(scale, 8_192))),
        cell("actor.update(1)\n"),
        cell("sample = ds.sample(256)\n"),
        cell("print(sample.mean())\n"),
        cell("block_size = 128\nparallelism = 16\nretries = 3\nstats = {'rows': 1000000, 'blocks': 8}\n"),
        cell("agg = sample.sum()\n"),
        cell("results = []\nresults.append(agg)\n"),
        // In-progress: re-execute the sampling cell (hidden state).
        cell("sample = ds.sample(256)\n"),
        cell("results.append(sample.sum())\n"),
        cell(format!("pipe = lib_obj('dask.Bag', {p}, 4)\npipe.update(2)\n", p = payload(scale, 16_384))),
        cell("ref = results\n"),
        cell("r_first = results[0]\nr_count = len(results)\nprint(r_count)\n"),
        cell("summary = {'agg': agg}\n"),
        cell("print(summary)\n"),
    ];
    assert_eq!(cells.len(), 20);
    let _ = &mut cells;
    NotebookSpec {
        name: "Ray",
        topic: "Distrib. Computing",
        library: "Ray",
        is_final: false,
        hidden_states: 1,
        out_of_order: 0,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_notebooks;
    use kishu_libsim::Registry;
    use kishu_minipy::Interp;
    use std::sync::Arc;

    fn run_notebook(nb: &NotebookSpec) -> Interp {
        let mut interp = Interp::new();
        kishu_libsim::install(&mut interp, Arc::new(Registry::standard()));
        for (i, c) in nb.cells.iter().enumerate() {
            let out = interp
                .run_cell(&c.src)
                .unwrap_or_else(|e| panic!("{} cell {i} does not parse: {e}\n{}", nb.name, c.src));
            if let Some(e) = out.error {
                panic!("{} cell {i} raised: {e}\n{}", nb.name, c.src);
            }
        }
        interp
    }

    #[test]
    fn every_notebook_runs_clean() {
        for nb in all_notebooks(0.2) {
            let interp = run_notebook(&nb);
            assert!(!interp.globals.is_empty(), "{} left no state", nb.name);
        }
    }

    #[test]
    fn cell_counts_match_table2() {
        let counts: Vec<(&str, usize)> = all_notebooks(0.1)
            .iter()
            .map(|n| (n.name, n.cell_count()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("Cluster", 24),
                ("TPS", 49),
                ("Sklearn", 44),
                ("HW-LM", 81),
                ("StoreSales", 41),
                ("Qiskit", 85),
                ("TorchGPU", 27),
                ("Ray", 20),
            ]
        );
    }

    #[test]
    fn final_vs_in_progress_matches_table8() {
        for nb in all_notebooks(0.1) {
            match nb.name {
                "Sklearn" | "Qiskit" | "Ray" => {
                    assert!(!nb.is_final, "{} is in-progress", nb.name);
                    assert!(nb.hidden_states > 0);
                }
                _ => assert!(nb.is_final, "{} is final", nb.name),
            }
        }
    }

    #[test]
    fn qiskit_has_many_hidden_states() {
        let nb = qiskit(1.0);
        assert!(nb.hidden_states >= 30, "Fig 22: repeated draw cells");
    }

    #[test]
    fn torchgpu_and_ray_hold_off_process_state() {
        let registry = Registry::standard();
        for name in ["TorchGPU", "Ray"] {
            let nb = all_notebooks(0.05)
                .into_iter()
                .find(|n| n.name == name)
                .expect("exists");
            let interp = run_notebook(&nb);
            let has_off_process = interp.heap.live_objects().any(|id| {
                if let kishu_kernel::ObjKind::External(ext) = interp.heap.kind(id) {
                    registry.get(ext.class).map(|s| s.behavior.off_process).unwrap_or(false)
                } else {
                    false
                }
            });
            assert!(has_off_process, "{name} must defeat CRIU");
        }
    }

    #[test]
    fn qiskit_holds_unserializable_state() {
        let nb = qiskit(0.1);
        let interp = run_notebook(&nb);
        let has_generator = interp
            .heap
            .live_objects()
            .any(|id| !interp.heap.kind(id).is_traversable());
        assert!(has_generator, "Qiskit must defeat DumpSession");
    }

    #[test]
    fn determinism_annotations_flag_entropy() {
        let nb = tps(0.1);
        assert!(nb.cells.iter().any(|c| !c.deterministic), "TPS has a random split");
        let nb = hw_lm(0.1);
        assert!(nb.cells.iter().all(|c| c.deterministic), "HW-LM is seeded throughout");
    }

    #[test]
    fn state_size_ordering_roughly_matches_table2() {
        use std::collections::HashMap;
        let mut sizes: HashMap<&str, u64> = HashMap::new();
        for nb in all_notebooks(0.2) {
            let interp = run_notebook(&nb);
            sizes.insert(nb.name, interp.heap.stats().live_bytes);
        }
        assert!(sizes["TorchGPU"] > sizes["Sklearn"]);
        assert!(sizes["Sklearn"] > sizes["HW-LM"]);
        assert!(sizes["StoreSales"] > sizes["Qiskit"]);
        assert!(sizes["TorchGPU"] > 10 * sizes["Qiskit"]);
    }

    #[test]
    fn most_cells_are_incremental() {
        // Fig 2 top: the large majority of cells access a small fraction of
        // the variables.
        let nb = sklearn(0.1);
        let mut interp = Interp::new();
        kishu_libsim::install(&mut interp, Arc::new(Registry::standard()));
        let mut small_access = 0;
        let mut total = 0;
        for c in &nb.cells {
            let out = interp.run_cell(&c.src).expect("parses");
            assert!(out.error.is_none());
            let vars = interp.globals.len().max(1);
            if out.access.accessed().len() * 10 <= vars * 4 {
                small_access += 1;
            }
            total += 1;
        }
        assert!(
            small_access * 2 > total,
            "only {small_access}/{total} cells were incremental"
        );
    }
}
