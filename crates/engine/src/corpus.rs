//! Corpus loading: many `.nqpv` sources as independent verification jobs.

use nqpv_telemetry::TraceContext;
use std::fmt;
use std::path::{Path, PathBuf};

/// One proof obligation: a named `.nqpv` source plus the directory its
/// `load "...npy"` paths resolve against.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (file stem for disk-backed jobs).
    pub name: String,
    /// Originating path, if the job came from disk.
    pub path: Option<PathBuf>,
    /// The NQPV source text.
    pub source: String,
    /// Base directory for `.npy` operator loads.
    pub base_dir: PathBuf,
    /// Wire-propagated trace identity ([`TraceContext::NONE`] for local
    /// runs); worker spans inherit it so client and daemon traces stitch.
    pub trace: TraceContext,
}

impl Job {
    /// Builds an untraced job.
    pub fn new(
        name: impl Into<String>,
        path: Option<PathBuf>,
        source: impl Into<String>,
        base_dir: PathBuf,
    ) -> Job {
        Job {
            name: name.into(),
            path,
            source: source.into(),
            base_dir,
            trace: TraceContext::NONE,
        }
    }

    /// Attaches a wire-propagated trace context (builder style).
    pub fn with_trace(mut self, trace: TraceContext) -> Job {
        self.trace = trace;
        self
    }
}

/// Errors while assembling a corpus.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure reading a directory, manifest or source.
    Io(PathBuf, std::io::Error),
    /// The directory/manifest yielded no `.nqpv` jobs.
    Empty(PathBuf),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(path, e) => write!(f, "reading '{}': {e}", path.display()),
            CorpusError::Empty(path) => {
                write!(f, "no .nqpv files found under '{}'", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// An ordered collection of verification jobs.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    jobs: Vec<Job>,
}

impl Corpus {
    /// Loads every `*.nqpv` file directly inside `dir` (sorted by file
    /// name, for deterministic job numbering).
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] on filesystem failures, [`CorpusError::Empty`]
    /// when the directory contains no `.nqpv` files.
    pub fn from_dir<P: AsRef<Path>>(dir: P) -> Result<Self, CorpusError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "nqpv") && p.is_file())
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(CorpusError::Empty(dir.to_path_buf()));
        }
        Self::from_paths(&paths)
    }

    /// Loads jobs from a manifest: a text file with one `.nqpv` path per
    /// line (relative paths resolve against the manifest's directory;
    /// blank lines and `#` comments are skipped).
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] on filesystem failures, [`CorpusError::Empty`]
    /// when no paths remain after filtering.
    pub fn from_manifest<P: AsRef<Path>>(manifest: P) -> Result<Self, CorpusError> {
        let manifest = manifest.as_ref();
        let text = std::fs::read_to_string(manifest)
            .map_err(|e| CorpusError::Io(manifest.to_path_buf(), e))?;
        let base = manifest.parent().map(Path::to_path_buf).unwrap_or_default();
        let paths: Vec<PathBuf> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let p = PathBuf::from(l);
                if p.is_absolute() {
                    p
                } else {
                    base.join(p)
                }
            })
            .collect();
        if paths.is_empty() {
            return Err(CorpusError::Empty(manifest.to_path_buf()));
        }
        Self::from_paths(&paths)
    }

    /// Loads jobs from explicit file paths.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] when any file cannot be read.
    pub fn from_paths(paths: &[PathBuf]) -> Result<Self, CorpusError> {
        let mut jobs = Vec::with_capacity(paths.len());
        for path in paths {
            let source =
                std::fs::read_to_string(path).map_err(|e| CorpusError::Io(path.clone(), e))?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let base_dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
            jobs.push(Job::new(name, Some(path.clone()), source, base_dir));
        }
        Ok(Corpus { jobs })
    }

    /// Builds a corpus from in-memory `(name, source)` pairs — the test
    /// and library-embedding entry point.
    pub fn from_sources<N: Into<String>, S: Into<String>>(sources: Vec<(N, S)>) -> Self {
        let jobs = sources
            .into_iter()
            .map(|(name, source)| Job::new(name, None, source, PathBuf::from(".")))
            .collect();
        Corpus { jobs }
    }

    /// The jobs, in corpus order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the corpus holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nqpv_engine_corpus_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dir_loading_is_sorted_and_filtered() {
        let dir = tmp("dir");
        std::fs::write(dir.join("b.nqpv"), "skip").unwrap();
        std::fs::write(dir.join("a.nqpv"), "skip").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let corpus = Corpus::from_dir(&dir).unwrap();
        let names: Vec<_> = corpus.jobs().iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(corpus.jobs()[0].base_dir, dir);
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = tmp("empty");
        assert!(matches!(Corpus::from_dir(&dir), Err(CorpusError::Empty(_))));
        assert!(matches!(
            Corpus::from_dir(dir.join("missing")),
            Err(CorpusError::Io(_, _))
        ));
    }

    #[test]
    fn manifest_resolves_relative_paths_and_comments() {
        let dir = tmp("manifest");
        std::fs::write(dir.join("x.nqpv"), "skip").unwrap();
        std::fs::write(dir.join("jobs.txt"), "# corpus manifest\n\nx.nqpv\n").unwrap();
        let corpus = Corpus::from_manifest(dir.join("jobs.txt")).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.jobs()[0].name, "x");
    }
}
