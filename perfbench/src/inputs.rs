//! Seeded workload inputs. The seed picks the applet corpus and every
//! fetch and run order; the system under test only sees what this
//! module generates.

use dvm_classfile::ClassFile;

use crate::Scale;

/// splitmix64: a small, well-mixed generator for seeded orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One runnable program among the inputs.
#[derive(Debug, Clone)]
pub struct AppInput {
    /// Main class internal name.
    pub main: String,
    /// Every class of the program, main first.
    pub classes: Vec<String>,
}

/// Everything a workload feeds the system.
pub struct Inputs {
    /// The origin's class files.
    pub classes: Vec<ClassFile>,
    /// `class://` URLs of every origin class, in seeded order.
    pub urls: Vec<String>,
    /// Origin (pre-rewrite) bytes, parallel to `urls`.
    pub origin: Vec<Vec<u8>>,
    /// Programs to run.
    pub apps: Vec<AppInput>,
}

/// The URL a DVM client requests for class `name`.
pub fn class_url(name: &str) -> String {
    format!("class://{name}")
}

/// The class name inside a `class://` URL.
pub fn url_class(url: &str) -> &str {
    url.strip_prefix("class://").unwrap_or(url)
}

fn name_of(cf: &ClassFile) -> String {
    cf.name().expect("generated classes are named").to_owned()
}

fn assemble(classes: Vec<ClassFile>, apps: Vec<AppInput>, rng: &mut Rng) -> Inputs {
    let mut pairs: Vec<(String, Vec<u8>)> = classes
        .iter()
        .map(|cf| {
            let bytes = cf.clone().to_bytes().expect("generated classes serialize");
            (class_url(&name_of(cf)), bytes)
        })
        .collect();
    rng.shuffle(&mut pairs);
    let (urls, origin) = pairs.into_iter().unzip();
    Inputs {
        classes,
        urls,
        origin,
        apps,
    }
}

/// The seeded applet corpus (`dvm_workload::corpus`), trimmed to
/// `scale.applets` applets, with `scale.layer_apps` of them picked as the
/// programs the traced run executes.
pub fn applets(seed: u64, scale: &Scale) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xA991_E750);
    let corpus: Vec<_> = dvm_workload::corpus(seed)
        .into_iter()
        .take(scale.applets)
        .collect();
    let mut apps: Vec<AppInput> = corpus
        .iter()
        .map(|a| AppInput {
            main: a.main_class.clone(),
            classes: a.classes.iter().map(name_of).collect(),
        })
        .collect();
    rng.shuffle(&mut apps);
    apps.truncate(scale.layer_apps);
    let classes = corpus.into_iter().flat_map(|a| a.classes).collect();
    assemble(classes, apps, &mut rng)
}

/// The Figure-5 applications at `1/scale.app_den` of their iterations
/// (the first `scale.fig5_apps` of them), in the paper's order; the
/// seed orders their URLs (and, in `run`, every round of app runs).
pub fn figure5(seed: u64, scale: &Scale) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xF165);
    let generated: Vec<_> = dvm_workload::figure5_apps()
        .iter()
        .take(scale.fig5_apps)
        .map(|spec| dvm_workload::generate(&spec.scaled(1, scale.app_den)))
        .collect();
    let apps: Vec<AppInput> = generated
        .iter()
        .map(|g| AppInput {
            main: g.main_class.clone(),
            classes: g.classes.iter().map(name_of).collect(),
        })
        .collect();
    let classes = generated.into_iter().flat_map(|g| g.classes).collect();
    assemble(classes, apps, &mut rng)
}
